//! The FMSA optimization driver (paper §IV, Fig. 7) as a
//! schedule/prepare/commit pipeline.
//!
//! "It starts by precomputing and caching fingerprints for all functions
//! ... For each function f1, we use a priority queue to rank the topmost
//! similar candidates ... We then perform this candidate exploration in a
//! greedy fashion, terminating after finding the first candidate that
//! results in a profitable merge and committing that merge operation. ...
//! the new function is added to the optimization working list. Because of
//! this feedback loop, merge operations can also be performed on functions
//! that resulted from previous merge operations."
//!
//! The paper's loop interleaves cheap bookkeeping with the two expensive
//! per-attempt steps (sequence alignment and merge code generation). This
//! driver splits each worklist *generation* into three stages (see
//! `docs/pipeline.md` for the architecture sketch):
//!
//! 1. **Schedule** (parallel): pop a batch of live subjects, query the
//!    [`crate::search::CandidateSearch`] index for each one's top
//!    candidates — concurrently over the generation's subjects, against
//!    a shared read-only index — and pre-fill the [`LinearizationCache`]
//!    (misses linearized, and their §III-D keys built, on the worker
//!    pool, inserted sequentially).
//! 2. **Prepare** (parallel): for every distinct `(subject, candidate)`
//!    pair, a worker aligns the two cached key sequences (under the
//!    fixed alignment budget, [`fmsa_align::plan`]) and
//!    computes the sound pre-codegen bound on Δ
//!    ([`crate::profitability::delta_bound`]). Workers only read the
//!    module; every result is advisory. One thread runs no prepare
//!    stage: the commit stage aligns and bounds every attempt inline.
//! 3. **Commit** (sequential): subjects are visited in the paper's
//!    worklist order. Each prepared attempt is re-validated — if an
//!    earlier commit of the generation changed either function, or
//!    dirtied the candidate index, the stale part is recomputed inline.
//!    The Δ bound gates every attempt: a pair it rules out skips codegen
//!    and only replays the type interning the build would have left. The
//!    rest are built in place ([`crate::merge::merge_pair_aligned`]),
//!    verified, and evaluated exactly
//!    ([`crate::profitability::evaluate_indexed`]). An accepted merge is
//!    committed on the spot ([`crate::thunks::commit_merge_indexed`]):
//!    the §III-A call-graph update rewrites only the callers the
//!    call-site index names. Every function the commit changed — both
//!    originals and each rewritten caller — then goes through one
//!    bookkeeping step (linearization, call-site entry, fingerprint), and
//!    the merged function joins the search index and the next
//!    generation's worklist.
//!
//! The candidate index is the pass's one record of which functions are
//! live and what their fingerprints are: a function is a subject or a
//! candidate only while the index holds it.
//!
//! A generation holds at most [`GENERATION_SUBJECTS`] subjects, at every
//! thread count, so generation boundaries — and with them every commit
//! counter and the decision log — do not depend on the thread count.
//!
//! Because the commit stage replays the paper's decision procedure
//! exactly — same candidate order, same greedy first-profitable rule,
//! same profitability values — the optimized module is **bit-identical
//! to the paper's loop at any thread count** (as long as the alignment
//! budget never triggers, which its constants guarantee at paper
//! scale). Parallelism only moves *where* alignments are computed;
//! staleness is handled by re-validation, never by accepting a prepared
//! result blindly. The root package's tests keep a plain copy of the
//! paper's loop as the reference they compare against.
//!
//! Oracle mode ([`Config::oracle`]) takes every live function as a
//! candidate (exact search) and has the commit stage evaluate them all
//! before it commits the one with the largest Δ, through the same commit
//! path.
//!
//! [`run`] is the pipeline alone; [`crate::optimize`] wraps it in input
//! verification, the identical-merging prepass, a panic boundary and
//! output re-verification. Both read one [`Config`].

use crate::callsites::CallSiteIndex;
use crate::config::Config;
use crate::faults::{FaultPlan, FaultSite};
use crate::fingerprint::Fingerprint;
use crate::linearize::{KeyAudit, LinearizationCache, Linearized};
use crate::merge::{merge_pair_aligned, MergeError, MergeInfo};
use crate::pass::FmsaStats;
use crate::profitability::{delta_bound, evaluate_indexed, DeltaBound, GateAudit, ProfitReport};
use crate::quarantine::{panic_message, QuarantineStage};
use crate::ranking::Candidate;
use crate::search::SearchStrategy;
use crate::telemetry::{trace, DecisionOutcome, DecisionRecord};
use crate::thunks::{commit_merge_indexed, Disposition};
use fmsa_align::{align_with_plan, plan, Alignment, ScoringScheme};
use fmsa_ir::{FuncId, IdHashMap, IdHashSet, Module};
use fmsa_target::CostModel;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Telemetry of one pipeline run (reported by the bench harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Worker threads used by the prepare stage.
    pub threads: usize,
    /// Schedule/prepare/commit generations executed.
    pub generations: usize,
    /// Attempts aligned and bounded ahead of commit by the prepare stage.
    pub prepared: usize,
    /// Prepared alignments consumed unchanged by the commit stage.
    pub reused: usize,
    /// Attempts whose prepared state was stale (function mutated since
    /// scheduling) and was recomputed inline.
    pub recomputed: usize,
    /// Attempts the sound pre-codegen Δ bound ruled out: no merged body
    /// was built for them.
    pub gate_skipped: usize,
    /// Attempts that passed the gate, were built, and were discarded as
    /// unprofitable: the builds a perfect gate would have skipped. Gate
    /// recall is `gate_skipped / (gate_skipped + gate_missed)`.
    pub gate_missed: usize,
    /// Attempts abandoned by the alignment budget's length cap.
    pub budget_skipped: usize,
    /// Wall-clock of everything the run does before its first generation:
    /// the module size walk, the worker pool, canonicalization,
    /// fingerprints, seeding the candidate index, and building the
    /// call-site index.
    pub seed: Duration,
    /// Wall-clock of the schedule stage — the sum of
    /// [`PipelineStats::schedule_query`] and
    /// [`PipelineStats::schedule_prefill`], kept as the stage total.
    pub schedule: Duration,
    /// Of [`PipelineStats::schedule`], the candidate-query phase: one
    /// index query per subject, run concurrently over the generation's
    /// subjects against the shared read-only index.
    pub schedule_query: Duration,
    /// Of [`PipelineStats::schedule`], the linearization-cache pre-fill
    /// (missing linearizations and key sequences computed on the worker
    /// pool, inserted sequentially).
    pub schedule_prefill: Duration,
    /// Summed per-task compute time inside the schedule stage's parallel
    /// phases. `schedule_cpu / schedule` is the stage's effective
    /// parallelism; at one thread the two are equal minus loop overhead.
    pub schedule_cpu: Duration,
    /// CPU time spent in candidate queries: in the schedule stage's
    /// workers (part of [`PipelineStats::schedule_cpu`]) and in the commit
    /// stage's re-queries after a generation's first commit.
    pub query_cpu: Duration,
    /// CPU time spent linearizing and building key sequences: in the
    /// schedule stage's pre-fill workers (part of
    /// [`PipelineStats::schedule_cpu`]) and in the commit stage's cache
    /// lookups (every miss at one thread).
    pub linearize_cpu: Duration,
    /// Wall-clock of the parallel prepare stage (alignment + Δ bound).
    pub prepare: Duration,
    /// Summed per-task compute time inside the prepare stage (the CPU
    /// time behind the [`PipelineStats::prepare`] wall).
    pub prepare_cpu: Duration,
    /// CPU time spent aligning pairs: in prepare workers (part of
    /// [`PipelineStats::prepare_cpu`]) and on the commit stage's inline
    /// path (stale or unprepared pairs, and every pair at one thread).
    pub align_cpu: Duration,
    /// CPU time spent computing the Δ bound of aligned pairs, on the same
    /// paths as [`PipelineStats::align_cpu`].
    pub bound_cpu: Duration,
    /// Wall-clock of the sequential commit stage.
    pub commit: Duration,
    /// Of [`PipelineStats::commit`], time spent producing merged bodies:
    /// codegen, verification and exact profitability.
    pub commit_codegen: Duration,
    /// Of [`PipelineStats::commit`], the call-graph update (call-site
    /// rewriting + thunking), run inline for each accepted merge
    /// ([`crate::thunks::commit_merge_indexed`]).
    pub rewrite: Duration,
    /// Pairs quarantined because sequence alignment panicked.
    pub quarantined_align: usize,
    /// Pairs quarantined because merge codegen panicked.
    pub quarantined_codegen: usize,
    /// Pairs quarantined because the verifier rejected the merged body.
    pub quarantined_verify: usize,
    /// Panics caught at any fault boundary (worker waves and the commit
    /// stage). Unlike the quarantine counters this is thread-dependent:
    /// a pair whose fault fires both in a prepare worker and in the
    /// commit stage's inline retry is caught twice at `threads > 1` and
    /// once at `threads == 1`.
    pub panics_caught: usize,
    /// Always zero: no stage builds merged bodies ahead of commit. This
    /// field and the four below are kept because `perfbench/` compiles
    /// against them; ROADMAP 1(c) deletes them. None is in
    /// [`PipelineStats::fields`].
    pub spec_built: usize,
    /// Always zero (see [`PipelineStats::spec_built`]).
    pub spec_committed: usize,
    /// Always zero (see [`PipelineStats::spec_built`]).
    pub spec_codegen: Duration,
    /// Always zero (see [`PipelineStats::spec_built`]).
    pub transplant: Duration,
    /// Always zero (see [`PipelineStats::spec_built`]).
    pub commit_barriers: usize,
}

impl PipelineStats {
    /// Total pairs quarantined, across all stages.
    pub fn quarantined(&self) -> usize {
        self.quarantined_align + self.quarantined_codegen + self.quarantined_verify
    }

    /// Folds another run's stats into this one — how streamed-corpus
    /// drivers (`experiments scale`) aggregate per-chunk pipeline runs
    /// into corpus totals. Counters and timers add; `threads` keeps the
    /// maximum seen.
    pub fn accumulate(&mut self, other: &PipelineStats) {
        self.threads = self.threads.max(other.threads);
        self.generations += other.generations;
        self.prepared += other.prepared;
        self.reused += other.reused;
        self.recomputed += other.recomputed;
        self.gate_skipped += other.gate_skipped;
        self.gate_missed += other.gate_missed;
        self.budget_skipped += other.budget_skipped;
        self.seed += other.seed;
        self.schedule += other.schedule;
        self.schedule_query += other.schedule_query;
        self.schedule_prefill += other.schedule_prefill;
        self.schedule_cpu += other.schedule_cpu;
        self.query_cpu += other.query_cpu;
        self.linearize_cpu += other.linearize_cpu;
        self.prepare += other.prepare;
        self.prepare_cpu += other.prepare_cpu;
        self.align_cpu += other.align_cpu;
        self.bound_cpu += other.bound_cpu;
        self.commit += other.commit;
        self.commit_codegen += other.commit_codegen;
        self.rewrite += other.rewrite;
        self.quarantined_align += other.quarantined_align;
        self.quarantined_codegen += other.quarantined_codegen;
        self.quarantined_verify += other.quarantined_verify;
        self.panics_caught += other.panics_caught;
    }

    /// The canonical `(name, value)` serialization of every counter and
    /// stage timer — the single source behind `fmsa_opt --stats`,
    /// `experiments ... --json`, and the daemon's registry gauges, so a
    /// counter added here can never drift out of any of them.
    pub fn fields(&self) -> Vec<(&'static str, StatValue)> {
        use StatValue::{Count, Secs};
        vec![
            ("threads", Count(self.threads as u64)),
            ("generations", Count(self.generations as u64)),
            ("prepared", Count(self.prepared as u64)),
            ("reused", Count(self.reused as u64)),
            ("recomputed", Count(self.recomputed as u64)),
            ("gate_skipped", Count(self.gate_skipped as u64)),
            ("gate_missed", Count(self.gate_missed as u64)),
            ("budget_skipped", Count(self.budget_skipped as u64)),
            ("seed_s", Secs(self.seed.as_secs_f64())),
            ("schedule_s", Secs(self.schedule.as_secs_f64())),
            ("schedule_query_s", Secs(self.schedule_query.as_secs_f64())),
            ("schedule_prefill_s", Secs(self.schedule_prefill.as_secs_f64())),
            ("schedule_cpu_s", Secs(self.schedule_cpu.as_secs_f64())),
            ("query_cpu_s", Secs(self.query_cpu.as_secs_f64())),
            ("linearize_cpu_s", Secs(self.linearize_cpu.as_secs_f64())),
            ("prepare_s", Secs(self.prepare.as_secs_f64())),
            ("prepare_cpu_s", Secs(self.prepare_cpu.as_secs_f64())),
            ("align_cpu_s", Secs(self.align_cpu.as_secs_f64())),
            ("bound_cpu_s", Secs(self.bound_cpu.as_secs_f64())),
            ("commit_s", Secs(self.commit.as_secs_f64())),
            ("commit_codegen_s", Secs(self.commit_codegen.as_secs_f64())),
            ("rewrite_s", Secs(self.rewrite.as_secs_f64())),
            ("quarantined", Count(self.quarantined() as u64)),
            ("quarantined_align", Count(self.quarantined_align as u64)),
            ("quarantined_codegen", Count(self.quarantined_codegen as u64)),
            ("quarantined_verify", Count(self.quarantined_verify as u64)),
            ("panics_caught", Count(self.panics_caught as u64)),
        ]
    }

    /// Mirrors [`PipelineStats::fields`] into `registry` as gauges named
    /// `fmsa_pipeline_<field>` (timers in seconds) — how the daemon's
    /// `/metrics` absorbs pipeline counters.
    pub fn record_into(&self, registry: &crate::telemetry::Registry) {
        for (name, value) in self.fields() {
            let full = format!("fmsa_pipeline_{name}");
            let g = registry.gauge_with(&full, "pipeline counter (see PipelineStats)", &[]);
            match value {
                StatValue::Count(v) => g.set(v as f64),
                StatValue::Secs(v) => g.set(v),
            }
        }
    }
}

/// One value of [`PipelineStats::fields`].
#[derive(Debug, Clone, Copy)]
pub enum StatValue {
    /// An event count (serialized as an integer).
    Count(u64),
    /// A wall/CPU duration in seconds.
    Secs(f64),
}

/// Most subjects one generation schedules, at every thread count. The
/// prepare stage holds every scheduled pair's alignment and Δ bound
/// until the commit stage consumes it, so an uncapped generation over a
/// multi-thousand-subject frontier holds tens of thousands at once: on
/// the 5 000-function clone swarm of the repository benchmark, peak RSS
/// rose from about 164 to about 244 MiB without the cap (2-core Xeon VM,
/// two threads). The cap is decision-neutral. Applying it at one thread
/// too, where nothing is prepared, keeps generation boundaries — and so
/// the commit counters — independent of the thread count; it measured a
/// tie with the whole frontier there (`docs/pipeline.md`).
pub const GENERATION_SUBJECTS: usize = 256;

/// Most pairs one oracle generation schedules. An oracle subject takes
/// every live function as a candidate, so [`GENERATION_SUBJECTS`]
/// subjects of a 400-function module would prepare about 100 000
/// alignments at once: on the 39 SPEC+MiBench modules of at most 400
/// functions, two threads peaked at 422 MiB against 24 MiB at one
/// (2-core Xeon VM), and 59 MiB with this cap. Oracle generations take
/// this many pairs' worth of subjects instead; the count depends on the
/// live functions, not on the thread count, so it stays as
/// decision-neutral and thread-invariant as the subject cap.
const ORACLE_GENERATION_PAIRS: usize = 4096;

/// One pair's alignment and Δ bound, with the time each took. The
/// prepare stage keeps it until the commit stage consumes it or its
/// generation ends.
struct Gated {
    alignment: Option<Alignment>,
    bound: Option<DeltaBound>,
    align_time: Duration,
    bound_time: Duration,
}

/// Aligns one pair under the budget and bounds its Δ: everything the
/// gate needs, computed the same way by a prepare worker and by the
/// commit stage's inline path.
fn align_and_bound(
    module: &Module,
    cm: &CostModel,
    f1: FuncId,
    f2: FuncId,
    lin1: &Linearized,
    lin2: &Linearized,
    cfg: &Config,
) -> Gated {
    let t0 = Instant::now();
    let plan = plan(lin1.keys.len(), lin2.keys.len());
    let alignment =
        align_with_plan(&lin1.keys, &lin2.keys, |a, b| a == b, &ScoringScheme::default(), plan);
    let t1 = Instant::now();
    let bound = alignment.as_ref().and_then(|al| {
        delta_bound(module, cm, f1, f2, &lin1.entries, &lin2.entries, al, &cfg.merge).ok()
    });
    Gated { alignment, bound, align_time: t1 - t0, bound_time: t1.elapsed() }
}

/// Whether `f` may take part in a merge: it is a definition, `cfg` does
/// not exclude it, and it is not varargs — a varargs definition's
/// callers pass arguments the merged function has no params for.
/// [`crate::merge::merge_setup`] refuses such a pair as well; filtering
/// here keeps it out of the search index, so it takes no candidate slot
/// and no attempt. The paper-loop reference the tests keep applies this
/// same rule.
pub fn eligible(module: &Module, f: FuncId, cfg: &Config) -> bool {
    let func = module.func(f);
    !func.is_declaration()
        && !cfg.exclude.contains(&func.name)
        && !module.types.is_varargs(func.fn_ty())
}

/// The state the worklist starts from: the seeded search index, which
/// holds every live function with its fingerprint, and the initial
/// worklist.
struct SeededPass {
    index: Box<dyn crate::search::CandidateSearch>,
    worklist: VecDeque<FuncId>,
}

/// Canonicalizes (when asked), fingerprints every eligible function and
/// seeds the candidate-search index.
///
/// Fingerprinting and index seeding run on `pool` — `Fingerprint::of`
/// and `MinHasher::signature` are pure functions of the (quiescent)
/// module, and the sharded batch insert preserves serial bucket order,
/// so the seeded state is bit-identical at every thread count (a
/// one-thread pool runs them inline). At the million-function scale
/// these two loops are the entire startup cost.
fn seed_pass(module: &mut Module, cfg: &Config, pool: &rayon::ThreadPool) -> SeededPass {
    // Optional future-work extension: canonical intra-block instruction
    // order, so reordered clones linearize identically.
    if cfg.canonicalize {
        for f in module.func_ids() {
            if eligible(module, f, cfg) {
                fmsa_ir::passes::canonicalize_block_order(module.func_mut(f));
            }
        }
    }
    // Fingerprint every eligible function (cached; §IV) and seed the
    // candidate-search index. The index is maintained incrementally through
    // the feedback loop — no per-iteration pool is ever rebuilt.
    let available: Vec<FuncId> =
        module.func_ids().into_iter().filter(|&f| eligible(module, f, cfg)).collect();
    let module = &*module;
    let items = pool.par_map(&available, |_, &f| (f, Fingerprint::of(module, f)));
    // The oracle's "best possible candidate" claim requires an exhaustive
    // scan: shortlisting would silently turn its upper bound into a guess,
    // so oracle mode always searches exactly regardless of `cfg.search`.
    // `Auto` resolves here, against the eligible-function count.
    let strategy =
        if cfg.oracle { SearchStrategy::Exact } else { cfg.search.resolve(available.len()) };
    let mut index = strategy.build();
    index.insert_batch(items, pool);
    SeededPass { index, worklist: available.into() }
}

/// Runs the FMSA optimization over `module` with the merge pipeline,
/// under `cfg`. Produces a module bit-identical to the paper's loop for
/// any [`Config::threads`] (see the module docs for why): alignments and
/// Δ bounds are computed on a worker pool, functions are linearized once
/// per generation instead of once per attempt, and profitability queries
/// hit an incremental call-site index instead of rescanning the module.
///
/// This is the pipeline alone: unlike [`crate::optimize`], it neither
/// verifies its input nor runs the identical-merging prepass
/// ([`Config::identical_prepass`] is not read here), and a panic outside
/// the pipeline's own fault boundaries unwinds to the caller.
pub fn run(module: &mut Module, cfg: &Config) -> FmsaStats {
    run_pipeline(module, cfg, None, None)
}

/// [`run`] that also checks the Δ gate against real builds: every
/// attempt's bound is compared with the real Δ of its build, and every
/// gate-skipped attempt is additionally built (and discarded) in place,
/// so its real Δ and the type store it leaves can be compared with the
/// bound and the skip's type replay. The module ends exactly as [`run`]
/// leaves it; the audit costs the builds the gate saves. For tests and
/// soundness experiments.
pub fn run_audited(module: &mut Module, cfg: &Config) -> (FmsaStats, GateAudit) {
    let mut audit = GateAudit::default();
    let stats = run_pipeline(module, cfg, Some(&mut audit), None);
    (stats, audit)
}

/// [`run`] that also checks the linearization cache: at every commit
/// attempt, the cached linearization and key sequence of both functions
/// are compared with freshly computed ones, so a cache entry a mutation
/// should have invalidated cannot go unnoticed. The module ends exactly
/// as [`run`] leaves it. For tests.
pub fn run_key_audited(module: &mut Module, cfg: &Config) -> (FmsaStats, KeyAudit) {
    let mut audit = KeyAudit::default();
    let stats = run_pipeline(module, cfg, None, Some(&mut audit));
    (stats, audit)
}

fn run_pipeline(
    module: &mut Module,
    cfg: &Config,
    mut audit: Option<&mut GateAudit>,
    mut key_audit: Option<&mut KeyAudit>,
) -> FmsaStats {
    let _pass_span = trace::span("fmsa", "pass");
    let t_seed = Instant::now();
    let threads = cfg.resolved_threads();
    let faults = cfg.faults;
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool");
    let cm = CostModel::new(cfg.arch);
    let mut stats = FmsaStats { size_before: cm.module_size(module), ..FmsaStats::default() };

    let SeededPass { mut index, mut worklist } = seed_pass(module, cfg, &pool);

    // Oracle mode explores every candidate of every subject.
    let threshold = if cfg.oracle { usize::MAX } else { cfg.threshold };

    let mut lin_cache = LinearizationCache::new();
    let mut call_sites = CallSiteIndex::build(module);
    let mut pstats = PipelineStats { threads, seed: t_seed.elapsed(), ..PipelineStats::default() };

    while !worklist.is_empty() {
        pstats.generations += 1;
        let _gen_span = trace::span_with("fmsa", "generation", || {
            vec![("gen", pstats.generations.to_string())]
        });
        // ---------------------------------------------------- schedule
        let cap = if cfg.oracle {
            (ORACLE_GENERATION_PAIRS / index.len().max(1)).clamp(1, GENERATION_SUBJECTS)
        } else {
            GENERATION_SUBJECTS
        };
        let take = cap.min(worklist.len());
        let mut subjects = Vec::with_capacity(take);
        for _ in 0..take {
            let f = worklist.pop_front().expect("worklist non-empty");
            if index.contains(f) && module.is_live(f) {
                subjects.push(f);
            }
        }
        if subjects.is_empty() {
            continue;
        }
        let sched_span = trace::span("fmsa", "schedule");
        let t0 = Instant::now();
        let scheduled: Vec<(FuncId, Vec<Candidate>)> = {
            // Queries only read the index (`CandidateSearch` is
            // `Send + Sync` for exactly this), and `par_map` returns
            // results in input order, so parallel scheduling is
            // candidate-for-candidate identical to the serial loop. At one
            // thread `par_map` runs inline.
            let shared_index: &dyn crate::search::CandidateSearch = index.as_ref();
            let query_cpu = AtomicU64::new(0);
            let out = pool.par_map(&subjects, |_, &f| {
                let _s = trace::span("fmsa", "query");
                let t = Instant::now();
                let cands = shared_index.candidates(f, threshold, cfg.min_similarity);
                query_cpu.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                (f, cands)
            });
            let query_cpu = Duration::from_nanos(query_cpu.into_inner());
            pstats.schedule_cpu += query_cpu;
            pstats.query_cpu += query_cpu;
            out
        };
        let dt = t0.elapsed();
        pstats.schedule += dt;
        pstats.schedule_query += dt;
        drop(sched_span);

        // ----------------------------------------------------- prepare
        // Prepared pairs live for this generation only: a pair is reused
        // while no commit of the generation has changed either function
        // (`changed`, filled by the commit stage).
        let mut prepared: IdHashMap<(FuncId, FuncId), Gated> = IdHashMap::default();
        let mut changed: IdHashSet<FuncId> = IdHashSet::default();
        if threads > 1 {
            let _prep_span = trace::span("fmsa", "prepare");
            let mut jobs: Vec<(FuncId, FuncId)> = Vec::new();
            let mut seen: IdHashSet<(FuncId, FuncId)> = IdHashSet::default();
            for (f1, cands) in &scheduled {
                for c in cands {
                    if seen.insert((*f1, c.func)) {
                        jobs.push((*f1, c.func));
                    }
                }
            }
            let t0 = Instant::now();
            let mut lin_funcs: Vec<FuncId> = Vec::with_capacity(jobs.len() * 2);
            for &(f1, f2) in &jobs {
                lin_funcs.push(f1);
                lin_funcs.push(f2);
            }
            let prefill_cpu = lin_cache.prefill(module, &lin_funcs, &pool);
            pstats.schedule_cpu += prefill_cpu;
            pstats.linearize_cpu += prefill_cpu;
            let dt = t0.elapsed();
            pstats.schedule += dt;
            pstats.schedule_prefill += dt;
            let t0 = Instant::now();
            let shared: &Module = module;
            let cache: &LinearizationCache = &lin_cache;
            // Fault boundary: a panicking align worker must not take the
            // scope down (the stand-in pool rethrows at join). A panicked
            // pair simply stays out of `prepared`; the commit stage's
            // inline retry is the authoritative attempt, so the
            // quarantine decision is made there, identically at every
            // thread count.
            let job_cpu = AtomicU64::new(0);
            let results = pool.par_map(&jobs, |_, &(f1, f2)| {
                let _s = trace::span("fmsa", "align");
                let t = Instant::now();
                let r = catch_unwind(AssertUnwindSafe(|| {
                    let lin1 = cache.cached(f1).expect("pre-filled");
                    let lin2 = cache.cached(f2).expect("pre-filled");
                    let (n1, n2) = (&shared.func(f1).name, &shared.func(f2).name);
                    if faults.fires(FaultSite::Align, n1, n2) {
                        panic!("injected fault: align {n1} {n2}");
                    }
                    align_and_bound(shared, &cm, f1, f2, lin1, lin2, cfg)
                }))
                .ok();
                job_cpu.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                r
            });
            pstats.prepare += t0.elapsed();
            pstats.prepare_cpu += Duration::from_nanos(job_cpu.into_inner());
            for ((f1, f2), result) in jobs.into_iter().zip(results) {
                let Some(gated) = result else {
                    pstats.panics_caught += 1;
                    continue;
                };
                pstats.prepared += 1;
                pstats.align_cpu += gated.align_time;
                pstats.bound_cpu += gated.bound_time;
                prepared.insert((f1, f2), gated);
            }
        }

        // ------------------------------------------------------ commit
        // `dirty` flips on the first commit of the generation: from then
        // on the index may answer differently than it did at schedule
        // time, so candidate lists are re-queried (exactly what the
        // paper's loop would see at this point of the worklist).
        let commit_span = trace::span("fmsa", "commit");
        let t_commit = Instant::now();
        let mut dirty = false;
        for (f1, scheduled_cands) in scheduled {
            if !index.contains(f1) || !module.is_live(f1) {
                continue;
            }
            let cands = if dirty {
                let t0 = Instant::now();
                let c = index.candidates(f1, threshold, cfg.min_similarity);
                pstats.query_cpu += t0.elapsed();
                c
            } else {
                scheduled_cands
            };

            // The subject's decision records, in attempt order. The
            // winner's outcome is fixed up once its commit resolves, then
            // the whole batch lands in `stats.decisions`.
            let mut recs: Vec<DecisionRecord> = Vec::new();
            // The merge this subject commits: its 1-based rank, its
            // built body, its Δ and the index of its record in `recs`.
            let mut best: Option<(usize, MergeInfo, i64, usize)> = None;
            for (pos, cand) in cands.iter().enumerate() {
                stats.attempted += 1;
                let t0 = Instant::now();
                let lin1 = lin_cache.get(module, f1);
                let lin2 = lin_cache.get(module, cand.func);
                pstats.linearize_cpu += t0.elapsed();
                if let Some(a) = key_audit.as_deref_mut() {
                    a.check(&lin_cache, module, f1);
                    a.check(&lin_cache, module, cand.func);
                }
                let (seq1, seq2) = (&lin1.entries, &lin2.entries);
                // Names key the fault plan and the quarantine log: they
                // are stable across thread counts, unlike ids-at-commit.
                let n1 = module.func(f1).name.clone();
                let n2 = module.func(cand.func).name.clone();
                let _att_span = trace::span_with("fmsa", "merge_attempt", || {
                    vec![("subject", n1.clone()), ("candidate", n2.clone())]
                });
                // Decision-log state for this attempt: every exit path
                // below resolves it to exactly one outcome.
                let rec = |align_score: Option<i64>,
                           delta: Option<i64>,
                           outcome: DecisionOutcome| DecisionRecord {
                    subject: n1.clone(),
                    candidate: n2.clone(),
                    similarity: cand.similarity,
                    rank: (pos + 1) as u32,
                    align_score,
                    delta,
                    delta_bound: None,
                    outcome,
                };
                let fresh = !changed.contains(&f1) && !changed.contains(&cand.func);
                let (alignment, bound) = match prepared.remove(&(f1, cand.func)) {
                    Some(Gated { alignment, mut bound, .. }) if fresh => {
                        pstats.reused += 1;
                        if let Some(b) = bound.as_mut() {
                            b.refresh(&module.types);
                        }
                        (alignment, bound)
                    }
                    _ => {
                        if threads > 1 {
                            pstats.recomputed += 1;
                        }
                        // Fault boundary: this inline recompute is the
                        // authoritative alignment (it also runs for pairs
                        // whose prepare worker panicked), so a panic here
                        // quarantines the pair — deterministically, since
                        // nothing on this path depends on thread count.
                        let recomputed = catch_unwind(AssertUnwindSafe(|| {
                            if faults.fires(FaultSite::Align, &n1, &n2) {
                                panic!("injected fault: align {n1} {n2}");
                            }
                            align_and_bound(module, &cm, f1, cand.func, &lin1, &lin2, cfg)
                        }));
                        match recomputed {
                            Ok(gated) => {
                                pstats.align_cpu += gated.align_time;
                                pstats.bound_cpu += gated.bound_time;
                                (gated.alignment, gated.bound)
                            }
                            Err(payload) => {
                                pstats.panics_caught += 1;
                                if stats.quarantine.push(
                                    QuarantineStage::Align,
                                    &n1,
                                    &n2,
                                    panic_message(payload.as_ref()),
                                    faults.seed,
                                ) {
                                    pstats.quarantined_align += 1;
                                }
                                recs.push(rec(None, None, DecisionOutcome::Quarantined));
                                continue;
                            }
                        }
                    }
                };
                let align_score = alignment.as_ref().map(|al| al.score);
                let Some(alignment) = alignment else {
                    pstats.budget_skipped += 1;
                    recs.push(rec(None, None, DecisionOutcome::BudgetSkipped));
                    continue;
                };
                // From here on every record carries the gate's bound.
                let rec_ungated = rec;
                let rec = |align_score: Option<i64>, delta: Option<i64>, outcome| DecisionRecord {
                    delta_bound: bound.as_ref().map(|b| b.bound),
                    ..rec_ungated(align_score, delta, outcome)
                };
                if let Some(b) = bound.as_ref().filter(|b| b.rules_out(&module.types)) {
                    // Sound gate: the bound proves the real Δ would be
                    // ≤ 0, so the paper's loop would have generated and
                    // discarded this merge (and the oracle could not
                    // pick it). Skip codegen, replaying the types the
                    // discarded build would have left behind.
                    if let Some(a) = audit.as_deref_mut() {
                        a.check_skip(
                            module,
                            &cm,
                            &call_sites,
                            f1,
                            cand.func,
                            seq1,
                            seq2,
                            &alignment,
                            b,
                            &cfg.merge,
                        );
                    }
                    b.replay_skip(&mut module.types);
                    pstats.gate_skipped += 1;
                    recs.push(rec(align_score, None, DecisionOutcome::GateSkipped));
                    continue;
                }
                let t0 = Instant::now();
                // Codegen behind a fault boundary: this path runs
                // identically at every thread count, so its panics (and
                // verifier rejections of its output) decide quarantine.
                // `Err` carries the record of an attempt that ends here.
                let outcome: Result<(MergeInfo, ProfitReport), DecisionRecord> = 'attempt: {
                    let arena_mark = module.func_arena_len();
                    let built = catch_unwind(AssertUnwindSafe(|| {
                        if faults.fires(FaultSite::Codegen, &n1, &n2) {
                            panic!("injected fault: codegen {n1} {n2}");
                        }
                        merge_pair_aligned(
                            module,
                            f1,
                            cand.func,
                            seq1.to_vec(),
                            seq2.to_vec(),
                            alignment,
                            &cfg.merge,
                        )
                    }));
                    // Never commit an unverified merged body: `generate`
                    // removes a body the verifier rejects (a real bug in
                    // codegen), and an injected verifier fault removes it
                    // here. Such a pair is quarantined, as a panic's is.
                    let built = match built {
                        Ok(Ok(info)) if !faults.fires(FaultSite::Verify, &n1, &n2) => Ok(info),
                        Ok(Ok(info)) => {
                            module.remove_function(info.merged);
                            Err((
                                QuarantineStage::Verify,
                                format!("injected fault: verify {n1} {n2}"),
                            ))
                        }
                        Ok(Err(MergeError::Unverified(reason))) => {
                            Err((QuarantineStage::Verify, reason))
                        }
                        Ok(Err(_)) => {
                            break 'attempt Err(rec(align_score, None, DecisionOutcome::Failed));
                        }
                        Err(payload) => {
                            // A panic mid-codegen can leave partially
                            // built functions behind; sweep everything
                            // created since the snapshot.
                            for idx in arena_mark..module.func_arena_len() {
                                let id = FuncId::from_index(idx);
                                if module.is_live(id) {
                                    module.remove_function(id);
                                }
                            }
                            pstats.panics_caught += 1;
                            Err((QuarantineStage::Codegen, panic_message(payload.as_ref())))
                        }
                    };
                    let info = match built {
                        Ok(info) => info,
                        Err((stage, reason)) => {
                            if stats.quarantine.push(stage, &n1, &n2, reason, faults.seed) {
                                match stage {
                                    QuarantineStage::Codegen => pstats.quarantined_codegen += 1,
                                    _ => pstats.quarantined_verify += 1,
                                }
                            }
                            break 'attempt Err(rec(
                                align_score,
                                None,
                                DecisionOutcome::Quarantined,
                            ));
                        }
                    };
                    // An oracle's best-so-far body is still in the module:
                    // its calls count, as the paper's loop counts them.
                    let pending = best.as_ref().map(|b| b.1.merged);
                    let report = evaluate_indexed(module, &cm, &info, &call_sites, pending);
                    if let (Some(a), Some(b)) = (audit.as_deref_mut(), bound.as_ref()) {
                        a.check_built(module, f1, cand.func, b, report.delta);
                    }
                    Ok((info, report))
                };
                pstats.commit_codegen += t0.elapsed();
                match outcome {
                    Ok((info, report)) if report.is_profitable() => {
                        // Greedy: the first profitable candidate wins.
                        // Oracle: a strictly larger Δ displaces the best
                        // so far, whose body is discarded and whose record
                        // flips to unprofitable.
                        let delta = report.delta;
                        if best.as_ref().is_none_or(|b| delta > b.2) {
                            if let Some((_, old, _, i)) = best.take() {
                                module.remove_function(old.merged);
                                recs[i].outcome = DecisionOutcome::Unprofitable;
                            }
                            best = Some((pos + 1, info, delta, recs.len()));
                            recs.push(rec(align_score, Some(delta), DecisionOutcome::Merged));
                        } else {
                            module.remove_function(info.merged);
                            recs.push(rec(align_score, Some(delta), DecisionOutcome::Unprofitable));
                        }
                        if !cfg.oracle {
                            break;
                        }
                    }
                    Ok((info, report)) => {
                        module.remove_function(info.merged);
                        pstats.gate_missed += 1;
                        recs.push(rec(
                            align_score,
                            Some(report.delta),
                            DecisionOutcome::Unprofitable,
                        ));
                    }
                    Err(r) => recs.push(r),
                }
            }

            'commit: {
                let Some((rank, info, _, win)) = best else {
                    break 'commit;
                };
                // The §III-A call-graph update: a deleted side's calls are
                // rewritten only in the callers the index names.
                let t0 = Instant::now();
                let commit = match commit_merge_indexed(module, &info, &call_sites) {
                    Ok(c) => c,
                    Err(_) => {
                        // Should not happen (guarded by tests). Drop the
                        // merge and abandon this subject. The failed
                        // commit may have partially rewritten call sites
                        // the commit result does not name, so
                        // resynchronize the caches with the module and
                        // drop all prepared work.
                        module.remove_function(info.merged);
                        recs[win].outcome = DecisionOutcome::Failed;
                        call_sites = CallSiteIndex::build(module);
                        lin_cache = LinearizationCache::new();
                        prepared.clear();
                        dirty = true;
                        break 'commit;
                    }
                };
                pstats.rewrite += t0.elapsed();
                stats.merges += 1;
                stats.rank_positions.push(rank);
                for d in [commit.first, commit.second] {
                    match d {
                        Disposition::Deleted => stats.deleted += 1,
                        Disposition::Thunk => stats.thunks += 1,
                    }
                }
                // Retire the originals from the merge pool, then bring
                // every function the commit changed up to date: its
                // linearization, prepared pairs and call-site entry, and,
                // while it is still in the pool, its fingerprint.
                index.remove(f1);
                index.remove(info.f2);
                for g in [f1, info.f2].into_iter().chain(commit.touched) {
                    lin_cache.invalidate(g);
                    changed.insert(g);
                    if !module.is_live(g) {
                        call_sites.remove(g);
                        continue;
                    }
                    call_sites.refresh(module, g);
                    if index.contains(g) {
                        index.insert(g, Fingerprint::of(module, g));
                    }
                }
                // Feedback loop: the merged function joins the pool and
                // the next generation's worklist.
                call_sites.refresh(module, info.merged);
                index.insert(info.merged, Fingerprint::of(module, info.merged));
                worklist.push_back(info.merged);
                dirty = true;
            }
            for r in recs {
                stats.decisions.push(r);
            }
        }
        pstats.commit += t_commit.elapsed();
        drop(commit_span);
    }

    stats.size_after = cm.module_size(module);
    stats.pipeline = Some(pstats);
    stats
}

// ---------------------------------------------------------------- compat
// The options shims of the old two-struct entry point. Each item in this
// block is kept because `perfbench/` compiles against it; ROADMAP 1(c)
// deletes it, with `SearchStrategy::lsh()`, the `Option` around
// `FmsaStats::pipeline` and the five always-zero `PipelineStats` fields.

/// The merge-policy half of a [`Config`], as [`run_fmsa_pipeline`] takes
/// it. Kept because `perfbench/` compiles against it; ROADMAP 1(c)
/// deletes it.
#[deprecated(since = "0.7.0", note = "use `fmsa_core::Config` and `pipeline::run`")]
#[derive(Debug, Clone)]
pub struct FmsaOptions(Config);

/// The worker-count and fault-plan half of a [`Config`], as
/// [`run_fmsa_pipeline`] takes it. Kept because `perfbench/` compiles
/// against it; ROADMAP 1(c) deletes it.
#[deprecated(since = "0.7.0", note = "use `fmsa_core::Config` and `pipeline::run`")]
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    threads: usize,
    faults: FaultPlan,
}

#[allow(deprecated)]
impl Config {
    /// This configuration as [`run_fmsa_pipeline`]'s first options
    /// argument. Kept because `perfbench/` compiles against it; ROADMAP
    /// 1(c) deletes it.
    pub fn fmsa_options(&self) -> FmsaOptions {
        FmsaOptions(self.clone())
    }

    /// This configuration's worker count and fault plan as
    /// [`run_fmsa_pipeline`]'s second options argument. Kept because
    /// `perfbench/` compiles against it; ROADMAP 1(c) deletes it.
    pub fn pipeline_options(&self) -> PipelineOptions {
        PipelineOptions { threads: self.threads, faults: self.faults }
    }
}

/// [`run`] under the [`Config`] that `opts` and `pipe` were taken from.
/// Kept because `perfbench/` compiles against it; ROADMAP 1(c) deletes
/// it.
#[allow(deprecated)]
pub fn run_fmsa_pipeline(
    module: &mut Module,
    opts: &FmsaOptions,
    pipe: &PipelineOptions,
) -> FmsaStats {
    run(module, &Config { threads: pipe.threads, faults: pipe.faults, ..opts.0.clone() })
}

#[cfg(test)]
mod compat_tests {
    use super::*;
    use fmsa_ir::printer::print_module;

    /// The shim runs what [`run`] runs, at one and two threads: the same
    /// module text, merges, attempts and pipeline counters. It stands in
    /// for `perfbench/`'s traced pass, the shim's one caller.
    #[test]
    fn run_fmsa_pipeline_matches_run() {
        let counters = |stats: &FmsaStats| {
            let p = stats.pipeline.expect("pipeline stats");
            let counts: Vec<(&str, u64)> = p
                .fields()
                .into_iter()
                .filter_map(|(name, v)| match v {
                    StatValue::Count(c) => Some((name, c)),
                    StatValue::Secs(_) => None,
                })
                .collect();
            (stats.merges, stats.attempted, counts)
        };
        for threads in [1, 2] {
            let cfg = Config::new().threshold(5).exclude(["fam1"]).parallel(threads);
            let (mut shim, mut direct) = (Module::new("m"), Module::new("m"));
            super::tests::clone_family(&mut shim, 6, 12);
            super::tests::clone_family(&mut direct, 6, 12);
            let via_shim =
                run_fmsa_pipeline(&mut shim, &cfg.fmsa_options(), &cfg.pipeline_options());
            let via_run = run(&mut direct, &cfg);
            assert_eq!(print_module(&shim), print_module(&direct), "threads={threads}");
            assert_eq!(counters(&via_shim), counters(&via_run), "threads={threads}");
            assert!(via_run.merges > 0, "threads={threads}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmsa_ir::printer::print_module;
    use fmsa_ir::{FuncBuilder, Value};

    pub(super) fn clone_family(m: &mut Module, count: usize, body_len: usize) -> Vec<FuncId> {
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
        let mut out = Vec::new();
        for k in 0..count {
            let f = m.create_function(format!("fam{k}"), fn_ty);
            let mut b = FuncBuilder::new(m, f);
            let e = b.block("entry");
            b.switch_to(e);
            let mut v = Value::Param(0);
            for j in 0..body_len {
                v = b.add(v, b.const_i32(j as i32));
                v = b.mul(v, Value::Param(1));
            }
            // One differing constant per clone.
            v = b.xor(v, b.const_i32(k as i32 + 100));
            b.ret(Some(v));
            out.push(f);
        }
        out
    }

    /// Runs the pipeline under `cfg` on a fresh clone family.
    fn run_family(cfg: &Config, count: usize, body_len: usize) -> (Module, FmsaStats) {
        let mut m = Module::new("m");
        clone_family(&mut m, count, body_len);
        let stats = run(&mut m, cfg);
        (m, stats)
    }

    #[test]
    fn merges_a_clone_family_and_shrinks_module() {
        let (m, stats) = run_family(&Config::new(), 4, 12);
        assert!(stats.merges >= 2, "{stats:?}");
        assert!(stats.size_after < stats.size_before, "{stats:?}");
        assert!(fmsa_ir::verify_module(&m).is_empty(), "{:?}", fmsa_ir::verify_module(&m));
    }

    #[test]
    fn feedback_loop_merges_merged_functions() {
        // 4 clones: pairwise merges produce 2 merged functions that are
        // themselves similar and merge again -> 3 total merges.
        let (_, stats) = run_family(&Config::new().threshold(10), 4, 12);
        assert_eq!(stats.merges, 3, "{stats:?}");
    }

    #[test]
    fn exclusion_prevents_merging() {
        let (_, stats) = run_family(&Config::new().exclude(["fam0"]), 2, 12);
        assert_eq!(stats.merges, 0);
        assert_eq!(stats.size_before, stats.size_after);
    }

    #[test]
    fn oracle_finds_at_least_as_much_as_greedy() {
        let (_, greedy) = run_family(&Config::new(), 5, 10);
        let (_, oracle) = run_family(&Config::new().oracle(true), 5, 10);
        assert!(oracle.size_after <= greedy.size_after, "greedy={greedy:?} oracle={oracle:?}");
    }

    #[test]
    fn rank_positions_recorded() {
        let (_, stats) = run_family(&Config::new().threshold(5), 4, 12);
        assert_eq!(stats.rank_positions.len(), stats.merges);
        assert!(stats.rank_positions.iter().all(|&p| (1..=5).contains(&p)));
    }

    #[test]
    fn lsh_search_merges_clone_families_too() {
        let cfg = Config::new().threshold(10).search(SearchStrategy::Lsh);
        let (m, stats) = run_family(&cfg, 4, 12);
        assert!(stats.merges >= 2, "{stats:?}");
        assert!(stats.size_after < stats.size_before, "{stats:?}");
        assert!(fmsa_ir::verify_module(&m).is_empty());
    }

    #[test]
    fn lsh_feedback_loop_reaches_merged_functions() {
        // The incremental index must contain functions created mid-pass:
        // 4 clones merge pairwise, and the two merged functions must find
        // each other through the index for the third merge.
        let cfg = Config::new().threshold(10).search(SearchStrategy::Lsh);
        let (_, stats) = run_family(&cfg, 4, 12);
        assert_eq!(stats.merges, 3, "{stats:?}");
    }

    #[test]
    fn exact_and_lsh_agree_on_small_families() {
        let (_, exact) = run_family(&Config::new().threshold(5), 6, 10);
        let (_, lsh) = run_family(&Config::new().threshold(5).search(SearchStrategy::Lsh), 6, 10);
        assert_eq!(exact.merges, lsh.merges, "exact={exact:?} lsh={lsh:?}");
        assert_eq!(exact.size_after, lsh.size_after);
    }

    #[test]
    fn oracle_overrides_lsh_shortlisting() {
        // oracle + Lsh must behave exactly like oracle + Exact: the upper
        // bound is only meaningful over an exhaustive scan.
        let (_, exact) = run_family(&Config::new().oracle(true), 5, 10);
        let (_, lsh) = run_family(&Config::new().oracle(true).search(SearchStrategy::Lsh), 5, 10);
        assert_eq!(exact.merges, lsh.merges);
        assert_eq!(exact.size_after, lsh.size_after);
        assert_eq!(exact.rank_positions, lsh.rank_positions);
    }

    /// The clocks behind the paper's Fig. 13 rows all tick, and the
    /// four disjoint wall-clock regions fit in the call's wall time.
    #[test]
    fn stage_clocks_cover_the_fig13_rows() {
        for threads in [1, 2] {
            let mut m = Module::new("m");
            clone_family(&mut m, 6, 20);
            let t0 = Instant::now();
            let stats = run(&mut m, &Config::new().threshold(5).parallel(threads));
            let wall = t0.elapsed();
            let p = stats.pipeline.expect("pipeline stats");
            for (name, clock) in [
                ("seed", p.seed),
                ("query_cpu", p.query_cpu),
                ("linearize_cpu", p.linearize_cpu),
                ("align_cpu", p.align_cpu),
            ] {
                assert!(clock > Duration::ZERO, "{name} at {threads} threads: {p:?}");
            }
            let stages = p.seed + p.schedule + p.prepare + p.commit;
            assert!(stages <= wall, "{stages:?} > {wall:?} at {threads} threads: {p:?}");
        }
    }

    /// Every thread count in `threads` reproduces the one-thread run on a
    /// 6-clone family: module text, merges, attempts, rank positions,
    /// sizes and dispositions.
    fn assert_thread_invariant(cfg: &Config, threads: &[usize]) {
        let (m1, one) = run_family(&cfg.clone().parallel(1), 6, 12);
        for &t in threads {
            let (mt, par) = run_family(&cfg.clone().parallel(t), 6, 12);
            assert_eq!(print_module(&m1), print_module(&mt), "module text at {t} threads");
            assert_eq!(one.merges, par.merges);
            assert_eq!(one.attempted, par.attempted);
            assert_eq!(one.rank_positions, par.rank_positions);
            assert_eq!(one.size_after, par.size_after);
            assert_eq!((one.deleted, one.thunks), (par.deleted, par.thunks));
        }
    }

    #[test]
    fn multi_thread_matches_single_thread() {
        assert_thread_invariant(&Config::new().threshold(5), &[2, 4, 8]);
    }

    #[test]
    fn lsh_pipeline_is_thread_invariant() {
        assert_thread_invariant(&Config::new().threshold(5).search(SearchStrategy::Lsh), &[4]);
    }

    #[test]
    fn oracle_is_thread_invariant() {
        assert_thread_invariant(&Config::new().oracle(true), &[2, 4]);
    }

    #[test]
    fn oracle_commits_through_the_pipeline() {
        let (m, stats) = run_family(&Config::new().oracle(true).parallel(4), 5, 10);
        let p = stats.pipeline.expect("pipeline stats");
        assert_eq!(p.threads, 4);
        assert!(p.generations >= 1 && p.prepared > 0, "{p:?}");
        // Every profitable candidate was built and evaluated: exactly one
        // record per merge says so, the rest were gated, unprofitable or
        // outbid.
        use crate::telemetry::DecisionOutcome as O;
        assert_eq!(stats.decisions.count(O::Merged), stats.merges as u64);
        assert_eq!(stats.decisions.total(), stats.attempted as u64);
        assert!(fmsa_ir::verify_module(&m).is_empty());
    }

    #[test]
    fn pipeline_reports_telemetry() {
        let (m, stats) = run_family(&Config::new().threshold(5).parallel(4), 6, 12);
        let p = stats.pipeline.expect("pipeline stats");
        assert_eq!(p.threads, 4);
        assert!(p.generations >= 1);
        assert!(p.prepared > 0);
        assert!(p.reused > 0);
        // Every attempt either reuses its prepared pair or recomputes it:
        // a pair one of this generation's commits changed is stale.
        assert!(p.recomputed > 0, "{p:?}");
        assert_eq!(p.reused + p.recomputed, stats.attempted, "{p:?}");
        assert!(p.rewrite > Duration::ZERO, "commits must book rewrite time: {p:?}");
        assert!(p.rewrite <= p.commit, "{p:?}");
        assert!(fmsa_ir::verify_module(&m).is_empty());
    }

    #[test]
    fn schedule_timers_split_query_and_prefill() {
        let (_, stats) = run_family(&Config::new().threshold(5).parallel(4), 8, 12);
        let p = stats.pipeline.expect("pipeline stats");
        assert_eq!(p.schedule, p.schedule_query + p.schedule_prefill, "{p:?}");
        assert!(p.schedule_query > Duration::ZERO, "{p:?}");
        // Multi-thread runs pre-fill the cache and book CPU time for
        // the parallel phases.
        assert!(p.schedule_prefill > Duration::ZERO, "{p:?}");
        assert!(p.schedule_cpu > Duration::ZERO, "{p:?}");
        assert!(p.prepare_cpu > Duration::ZERO, "{p:?}");
    }

    #[test]
    fn injected_faults_quarantine_deterministically() {
        crate::faults::silence_injected_panics();
        // High rate so the small family reliably faults somewhere.
        let plan = FaultPlan::new(0xFA17, 400_000, &FaultSite::ALL);
        let mut baseline = None;
        for threads in [1usize, 2, 4] {
            let cfg = Config::new().threshold(5).parallel(threads).faults(plan);
            let (m, stats) = run_family(&cfg, 6, 12);
            assert!(fmsa_ir::verify_module(&m).is_empty(), "faulted run stays valid");
            let p = stats.pipeline.expect("pipeline stats");
            assert_eq!(
                p.quarantined_align + p.quarantined_codegen + p.quarantined_verify,
                p.quarantined()
            );
            assert_eq!(stats.quarantine.len(), p.quarantined(), "log and counters agree");
            let snapshot = (print_module(&m), stats.quarantine.summary(), stats.merges);
            match &baseline {
                None => baseline = Some(snapshot),
                Some(b) => assert_eq!(b, &snapshot, "thread count {threads} diverged"),
            }
        }
        let (_, summary, _) = baseline.expect("ran");
        assert!(!summary.is_empty(), "this plan must quarantine something");
    }
}
