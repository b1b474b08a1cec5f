//! The parallel merge pipeline: a schedule/prepare/commit restructuring
//! of the sequential FMSA driver ([`crate::pass::run_fmsa`]).
//!
//! The sequential driver interleaves cheap bookkeeping with the two
//! expensive per-attempt steps (sequence alignment and merge code
//! generation), leaving every core but one idle. This driver splits each
//! worklist *generation* into three stages (see `docs/pipeline.md` for
//! the architecture sketch):
//!
//! 1. **Schedule** (parallel): pop a batch of live subjects, query the
//!    [`crate::search::CandidateSearch`] index for each one's top
//!    candidates — concurrently over the generation's subjects, against
//!    a shared read-only index — snapshot the per-function mutation
//!    generation of every pair, and pre-fill the [`LinearizationCache`]
//!    (misses linearized, and their §III-D keys built, on the worker
//!    pool, inserted sequentially).
//! 2. **Prepare** (parallel): for every distinct `(subject, candidate)`
//!    pair, a worker aligns the two cached key sequences (under the
//!    [`fmsa_align::AlignmentBudget`] of [`FmsaOptions::budget`]) and
//!    computes the sound pre-codegen bound on Δ
//!    ([`crate::profitability::delta_bound`]). A second parallel wave
//!    then runs **speculative merge codegen**
//!    ([`crate::merge::speculate_merge`]) for the pairs the bound cannot
//!    rule out, building the merged body in a per-worker scratch module.
//!    Workers only read the main module; all results are speculative.
//! 3. **Commit** (sequential): subjects are visited in the exact order
//!    the sequential driver would visit them. Each prepared attempt is
//!    re-validated — if either function mutated since it was scheduled,
//!    or an earlier commit dirtied the candidate index, the stale part is
//!    recomputed inline. The Δ bound gates every attempt: a pair it
//!    rules out skips codegen and only replays the type interning the
//!    build would have left. A fresh speculative body is **transplanted**
//!    into the main module ([`crate::merge::commit_speculative`]); a
//!    conflict (either input mutated since scheduling) discards the
//!    scratch body and falls back to direct sequential codegen. Exact
//!    profitability ([`crate::profitability::evaluate_indexed`]) and the
//!    §III-A commit run here, feeding accepted merges back into the
//!    search index, the linearization cache, the call-site index, and
//!    the next generation's worklist.
//!
//! Accepted merges whose call-graph update provably interacts with
//! nothing else in the generation — every deletable side has zero
//! callers, the merged body calls neither its own originals nor anything
//! an earlier pending merge retired — are not committed one rewrite plan
//! (and one worker-pool barrier) at a time. Their bookkeeping runs
//! eagerly (so every later decision reads exactly the state the serial
//! driver would see) and the residual body work — thunking non-deletable
//! originals — is accumulated into one [`RewritePlan`] that flushes at
//! the end of the generation, or just before a merge that fails the
//! eligibility rules commits immediately. See `docs/pipeline.md`
//! ("Sharded schedule & batched commit") and the
//! [`PipelineStats::commit_barriers`] / [`PipelineStats::batched_merges`]
//! counters; bit-identity under batching is property-tested in
//! `tests/parallel_pipeline.rs`.
//!
//! Because the commit stage replays the sequential driver's decision
//! procedure exactly — same candidate order, same greedy
//! first-profitable rule, same profitability values — the optimized
//! module is **bit-identical to the sequential pass at any thread
//! count** (as long as the alignment budget never triggers, which the
//! default budget guarantees at paper scale). Parallelism only moves
//! *where* alignments are computed; staleness is handled by
//! re-validation, never by accepting a speculative result blindly.
//!
//! The oracle mode explores every candidate of every subject and commits
//! the global best per subject; its upper-bound claim depends on
//! evaluating against the exact module state, so [`run_fmsa_pipeline`]
//! delegates oracle runs to the sequential driver.

// This module *implements* the deprecated `PipelineOptions` surface; the
// replacement ([`crate::Config`]) converts into it.
#![allow(deprecated)]

use crate::callsites::{outgoing_calls, CallSiteIndex};
use crate::faults::{FaultPlan, FaultSite};
use crate::fingerprint::Fingerprint;
use crate::linearize::{KeyAudit, LinearizationCache, Linearized};
use crate::merge::{
    commit_speculative, evaluate_speculative, merge_pair_aligned, speculate_merge, AlignAlgo,
    MergeInfo, SpeculativeMerge,
};
use crate::pass::{run_fmsa, seed_pass, FmsaOptions, FmsaStats, SeededPass};
use crate::profitability::{delta_bound, evaluate_indexed, DeltaBound, GateAudit, ProfitReport};
use crate::quarantine::{panic_message, QuarantineStage};
use crate::ranking::Candidate;
use crate::telemetry::{trace, DecisionOutcome, DecisionRecord};
use crate::thunks::{
    can_delete, commit_merge_partitioned, prepare_commit_casts, Disposition, RewritePlan,
};
use fmsa_align::{align_with_plan, Alignment};
use fmsa_ir::{FuncId, Module};
use fmsa_target::CostModel;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Options of the pipeline driver, on top of [`FmsaOptions`].
#[deprecated(
    since = "0.7.0",
    note = "use `fmsa_core::Config` with `threads`/`batch`/`spec_depth` set (and \
            `fmsa_core::optimize`); `Config::pipeline_options()` converts for this driver"
)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Worker threads for the prepare stage; `0` selects the machine's
    /// available parallelism. `1` disables speculation entirely (no
    /// prepare stage, no wasted attempts) and runs the commit stage
    /// inline — the fastest configuration on a single core.
    pub threads: usize,
    /// Subjects scheduled per generation; `0` means the whole current
    /// frontier. Smaller batches waste less speculative work when
    /// commits invalidate scheduled attempts, at the cost of more
    /// prepare/commit barriers.
    pub batch: usize,
    /// How many of each subject's candidates the Δ bound cannot rule out
    /// get speculative merge codegen in the prepare stage (scratch-module
    /// build, transplanted at commit). `0` disables speculation entirely
    /// (commit builds every merged body inline); `usize::MAX` covers
    /// every such pair. Defaults to `usize::MAX`, which is kept for
    /// behaviour, not measured worth: since the bound gates prepare, only
    /// the pairs it cannot rule out are built, and the speculation
    /// measurements in `docs/pipeline.md` are the input for deciding
    /// whether speculation stays at all. No effect with one thread.
    pub spec_depth: usize,
    /// Deterministic fault injection (testing and the `experiments
    /// faults` harness). Disabled by default; when active, the plan
    /// forces panics / verifier rejections / scratch corruption at its
    /// enabled sites and the pipeline must quarantine or degrade — see
    /// [`crate::faults`] and `docs/robustness.md`.
    pub faults: FaultPlan,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            threads: 0,
            batch: 0,
            spec_depth: usize::MAX,
            faults: FaultPlan::disabled(),
        }
    }
}

impl PipelineOptions {
    /// Convenience: a pipeline with a fixed thread count.
    pub fn with_threads(threads: usize) -> PipelineOptions {
        PipelineOptions { threads, ..PipelineOptions::default() }
    }

    /// The worker count this configuration resolves to on this machine
    /// (`threads == 0` means available parallelism).
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            rayon::current_num_threads()
        } else {
            self.threads
        }
    }
}

/// Telemetry of one pipeline run (reported by the bench harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Worker threads used by the prepare stage.
    pub threads: usize,
    /// Schedule/prepare/commit generations executed.
    pub generations: usize,
    /// Attempts aligned speculatively by the prepare stage.
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
    /// Merged bodies built speculatively by the prepare stage.
    pub spec_built: usize,
    /// Speculative bodies consumed unmodified by the commit stage:
    /// profitability was decided on the scratch build, and profitable
    /// bodies were transplanted. Replaces one sequential codegen each.
    pub spec_used: usize,
    /// Of [`PipelineStats::spec_used`], merges committed from a
    /// transplanted speculative body (the rest evaluated unprofitable
    /// and were discarded without ever touching the main module).
    pub spec_committed: usize,
    /// Speculative bodies discarded by a conflict (input mutated since
    /// scheduling, or the transplant could not resolve a reference); the
    /// commit stage fell back to direct sequential codegen.
    pub spec_fallback: usize,
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
    /// Wall-clock of the parallel prepare stage (alignment + speculative
    /// codegen waves).
    pub prepare: Duration,
    /// Summed per-task compute time inside the prepare stage's waves
    /// (the CPU time behind the [`PipelineStats::prepare`] wall).
    pub prepare_cpu: Duration,
    /// CPU time spent aligning pairs: in prepare workers (part of
    /// [`PipelineStats::prepare_cpu`]) and on the commit stage's inline
    /// path (stale or unprepared pairs, and every pair at one thread).
    pub align_cpu: Duration,
    /// CPU time spent computing the Δ bound of aligned pairs, on the same
    /// paths as [`PipelineStats::align_cpu`].
    pub bound_cpu: Duration,
    /// Of [`PipelineStats::prepare`], the speculative-codegen wave.
    pub spec_codegen: Duration,
    /// Wall-clock of the sequential commit stage.
    pub commit: Duration,
    /// Of [`PipelineStats::commit`], time spent producing merged bodies
    /// (transplants plus fallback codegen plus profitability). This is the
    /// serial-codegen cost the speculative path exists to shrink.
    pub commit_codegen: Duration,
    /// Of [`PipelineStats::commit_codegen`], the transplant splices alone.
    pub transplant: Duration,
    /// Of [`PipelineStats::commit`], the call-graph update (call-site
    /// rewriting + thunking) — executed as a partitioned rewrite plan on
    /// the worker pool ([`crate::thunks::RewritePlan`]).
    pub rewrite: Duration,
    /// Scratch modules whose type store was shared entirely by reference
    /// (copy-on-write frozen prefix): setup copied zero types.
    pub scratch_cow_shared: usize,
    /// Scratch modules that had to copy at least one type eagerly (donor
    /// store interned types after its last freeze).
    pub scratch_cloned: usize,
    /// Types interned into scratch suffixes by speculative builds (the
    /// suffix re-interned into the main store on transplant/discard).
    pub scratch_suffix_types: usize,
    /// Estimated heap bytes the shared frozen prefixes avoided copying
    /// (see [`fmsa_ir::ScratchSetup::bytes_avoided`]).
    pub scratch_bytes_avoided: u64,
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
    /// Speculative bodies rejected by re-verification at commit (the
    /// scratch build was corrupted or the transplant produced an invalid
    /// body); the pipeline degraded to inline codegen, no quarantine.
    pub poisoned_scratch: usize,
    /// Differential mismatches attributed to this run by an external
    /// driver (the fuzz farm); the pipeline itself never sets it.
    pub mismatches: usize,
    /// Commit-stage barriers: rewrite-plan executions, each one a
    /// detach/pool-scope handoff. One per batch flush plus one per
    /// immediate (batch-ineligible) commit — the quantity batching
    /// shrinks from one-per-merge to one-(or a few)-per-generation.
    pub commit_barriers: usize,
    /// Merges committed through a deferred batch (bookkeeping eager,
    /// body work folded into the generation's flush; no private barrier).
    pub batched_merges: usize,
    /// Profitable merges that failed the batch-eligibility rules (a
    /// deletable side with live callers, a merged body calling its own
    /// originals or a pending side, or a feedback merge onto a pending
    /// merged function) and fell back to an immediate single-merge plan,
    /// flushing any pending batch first.
    pub batch_fallback: usize,
}

impl PipelineStats {
    /// Fraction of commit-stage merge bodies that consumed a speculative
    /// build unmodified (`spec_used / (spec_used + spec_fallback)`);
    /// `None` when no speculative body reached commit.
    pub fn spec_hit_rate(&self) -> Option<f64> {
        let total = self.spec_used + self.spec_fallback;
        (total > 0).then(|| self.spec_used as f64 / total as f64)
    }

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
        self.spec_built += other.spec_built;
        self.spec_used += other.spec_used;
        self.spec_committed += other.spec_committed;
        self.spec_fallback += other.spec_fallback;
        self.schedule += other.schedule;
        self.schedule_query += other.schedule_query;
        self.schedule_prefill += other.schedule_prefill;
        self.schedule_cpu += other.schedule_cpu;
        self.prepare += other.prepare;
        self.prepare_cpu += other.prepare_cpu;
        self.align_cpu += other.align_cpu;
        self.bound_cpu += other.bound_cpu;
        self.spec_codegen += other.spec_codegen;
        self.commit += other.commit;
        self.commit_codegen += other.commit_codegen;
        self.transplant += other.transplant;
        self.rewrite += other.rewrite;
        self.scratch_cow_shared += other.scratch_cow_shared;
        self.scratch_cloned += other.scratch_cloned;
        self.scratch_suffix_types += other.scratch_suffix_types;
        self.scratch_bytes_avoided += other.scratch_bytes_avoided;
        self.quarantined_align += other.quarantined_align;
        self.quarantined_codegen += other.quarantined_codegen;
        self.quarantined_verify += other.quarantined_verify;
        self.panics_caught += other.panics_caught;
        self.poisoned_scratch += other.poisoned_scratch;
        self.mismatches += other.mismatches;
        self.commit_barriers += other.commit_barriers;
        self.batched_merges += other.batched_merges;
        self.batch_fallback += other.batch_fallback;
    }

    /// The canonical `(name, value)` serialization of every counter and
    /// stage timer — the single source behind `fmsa_opt --stats`,
    /// `experiments ... --json`, and the daemon's registry gauges, so a
    /// counter added here can never drift out of any of them.
    pub fn fields(&self) -> Vec<(&'static str, StatValue)> {
        use StatValue::{Count, Ratio, Secs};
        vec![
            ("threads", Count(self.threads as u64)),
            ("generations", Count(self.generations as u64)),
            ("prepared", Count(self.prepared as u64)),
            ("reused", Count(self.reused as u64)),
            ("recomputed", Count(self.recomputed as u64)),
            ("gate_skipped", Count(self.gate_skipped as u64)),
            ("gate_missed", Count(self.gate_missed as u64)),
            ("budget_skipped", Count(self.budget_skipped as u64)),
            ("schedule_s", Secs(self.schedule.as_secs_f64())),
            ("schedule_query_s", Secs(self.schedule_query.as_secs_f64())),
            ("schedule_prefill_s", Secs(self.schedule_prefill.as_secs_f64())),
            ("schedule_cpu_s", Secs(self.schedule_cpu.as_secs_f64())),
            ("prepare_s", Secs(self.prepare.as_secs_f64())),
            ("prepare_cpu_s", Secs(self.prepare_cpu.as_secs_f64())),
            ("align_cpu_s", Secs(self.align_cpu.as_secs_f64())),
            ("bound_cpu_s", Secs(self.bound_cpu.as_secs_f64())),
            ("spec_codegen_s", Secs(self.spec_codegen.as_secs_f64())),
            ("commit_s", Secs(self.commit.as_secs_f64())),
            ("commit_codegen_s", Secs(self.commit_codegen.as_secs_f64())),
            ("transplant_s", Secs(self.transplant.as_secs_f64())),
            ("rewrite_s", Secs(self.rewrite.as_secs_f64())),
            ("commit_barriers", Count(self.commit_barriers as u64)),
            ("batched_merges", Count(self.batched_merges as u64)),
            ("batch_fallback", Count(self.batch_fallback as u64)),
            ("scratch_cow_shared", Count(self.scratch_cow_shared as u64)),
            ("scratch_cloned", Count(self.scratch_cloned as u64)),
            ("scratch_suffix_types", Count(self.scratch_suffix_types as u64)),
            ("scratch_bytes_avoided", Count(self.scratch_bytes_avoided)),
            ("spec_built", Count(self.spec_built as u64)),
            ("spec_used", Count(self.spec_used as u64)),
            ("spec_committed", Count(self.spec_committed as u64)),
            ("spec_fallback", Count(self.spec_fallback as u64)),
            ("spec_hit_rate", Ratio(self.spec_hit_rate().unwrap_or(f64::NAN))),
            ("quarantined", Count(self.quarantined() as u64)),
            ("quarantined_align", Count(self.quarantined_align as u64)),
            ("quarantined_codegen", Count(self.quarantined_codegen as u64)),
            ("quarantined_verify", Count(self.quarantined_verify as u64)),
            ("panics_caught", Count(self.panics_caught as u64)),
            ("poisoned_scratch", Count(self.poisoned_scratch as u64)),
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
                StatValue::Secs(v) | StatValue::Ratio(v) => {
                    g.set(if v.is_finite() { v } else { 0.0 })
                }
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
    /// A dimensionless ratio (NaN when undefined).
    Ratio(f64),
}

/// One speculative attempt out of the prepare stage.
struct Prepared {
    /// `None` when the alignment budget skipped the pair.
    alignment: Option<Alignment>,
    /// The pre-codegen Δ bound; `None` when the pair was not aligned or
    /// its merge set-up fails (the build then fails the same way).
    bound: Option<DeltaBound>,
    /// Speculatively generated merged body (scratch module), present for
    /// the subject's top [`PipelineOptions::spec_depth`] candidates the
    /// bound cannot rule out.
    spec: Option<SpeculativeMerge>,
    /// Mutation generations of `(f1, f2)` at schedule time.
    gens: (u64, u64),
    /// Global invalidation epoch at schedule time (bumped when a failed
    /// commit leaves the module in a state the per-function generations
    /// cannot describe).
    epoch: u64,
}

/// Aligns one pair's key sequences under the options' alignment budget.
/// Returns `None` when the budget refuses the pair.
fn align_budgeted(keys1: &[u32], keys2: &[u32], opts: &FmsaOptions) -> Option<Alignment> {
    align_with_plan(
        keys1,
        keys2,
        |a, b| a == b,
        &opts.merge.scoring,
        opts.budget.plan(keys1.len(), keys2.len()),
        opts.merge.algorithm == AlignAlgo::Hirschberg,
    )
}

/// One pair's alignment and Δ bound, with the time each took.
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
    opts: &FmsaOptions,
) -> Gated {
    let t0 = Instant::now();
    let alignment = align_budgeted(&lin1.keys, &lin2.keys, opts);
    let t1 = Instant::now();
    let bound = alignment.as_ref().and_then(|al| {
        delta_bound(module, cm, f1, f2, &lin1.entries, &lin2.entries, al, &opts.merge).ok()
    });
    Gated { alignment, bound, align_time: t1 - t0, bound_time: t1.elapsed() }
}

/// Executes the pending batch of deferred merges (no-op when empty):
/// thunks the non-deletable originals and re-confirms the removals, all
/// through one [`RewritePlan::execute`] barrier. The eligibility rules
/// guarantee the plan rewrites no caller, so the flush commutes with
/// everything that ran since the merges were accepted; `expected` holds
/// the dispositions predicted at decision time, re-checked here.
#[allow(clippy::too_many_arguments)]
fn flush_batch(
    module: &mut Module,
    plan: &mut RewritePlan,
    expected: &mut Vec<(Disposition, Disposition)>,
    pool: Option<&rayon::ThreadPool>,
    stats: &mut FmsaStats,
    pstats: &mut PipelineStats,
    call_sites: &mut CallSiteIndex,
    lin_cache: &mut LinearizationCache,
    epoch: &mut u64,
    dirty: &mut bool,
) {
    if plan.merges() == 0 {
        return;
    }
    let _span = trace::span("fmsa", "flush_batch");
    let t0 = Instant::now();
    let taken = std::mem::take(plan);
    let expect = std::mem::take(expected);
    match taken.execute(module, pool) {
        Ok(results) => {
            debug_assert_eq!(
                results.iter().map(|r| (r.first, r.second)).collect::<Vec<_>>(),
                expect,
                "deferred dispositions must match the decision-time prediction"
            );
            debug_assert!(
                results.iter().all(|r| r.touched.is_empty()),
                "batch-eligible merges must not touch any caller"
            );
        }
        Err(_) => {
            // Should not happen: eligible merges schedule no caller
            // rewrites and their thunk cast types were pre-interned at
            // decision time. The merges stay accepted (their bookkeeping
            // already fed the feedback loop); resynchronize the caches
            // with whatever state the module is in and invalidate all
            // speculative work.
            *call_sites = CallSiteIndex::build(module);
            *lin_cache = LinearizationCache::new();
            *epoch += 1;
            *dirty = true;
        }
    }
    let dt = t0.elapsed();
    stats.timers.update_calls += dt;
    pstats.rewrite += dt;
    pstats.commit_barriers += 1;
}

/// Runs the FMSA optimization over `module` with the parallel merge
/// pipeline. Produces a module bit-identical to [`run_fmsa`] for any
/// `pipe.threads` (see the module docs for why), in substantially less
/// wall-clock: alignments are computed speculatively on a worker pool,
/// functions are linearized once per generation instead of once per
/// attempt, and profitability queries hit an incremental call-site index
/// instead of rescanning the module.
///
/// Oracle runs ([`FmsaOptions::oracle`]) delegate to the sequential
/// driver.
pub fn run_fmsa_pipeline(
    module: &mut Module,
    opts: &FmsaOptions,
    pipe: &PipelineOptions,
) -> FmsaStats {
    run_pipeline(module, opts, pipe, None, None)
}

/// [`run_fmsa_pipeline`] that also checks the Δ gate against real builds:
/// every attempt's bound is compared with the real Δ of its build, and
/// every gate-skipped attempt is additionally built (and discarded) in
/// place, so its real Δ and the type store it leaves can be compared
/// with the bound and the skip's type replay. The module ends exactly as
/// [`run_fmsa_pipeline`] leaves it; the audit costs the builds the gate
/// saves. For tests and soundness experiments.
pub fn run_fmsa_pipeline_audited(
    module: &mut Module,
    opts: &FmsaOptions,
    pipe: &PipelineOptions,
) -> (FmsaStats, GateAudit) {
    let mut audit = GateAudit::default();
    let stats = run_pipeline(module, opts, pipe, Some(&mut audit), None);
    (stats, audit)
}

/// [`run_fmsa_pipeline`] that also checks the linearization cache: at
/// every commit attempt, the cached linearization and key sequence of
/// both functions are compared with freshly computed ones, so a cache
/// entry a mutation should have invalidated cannot go unnoticed. The
/// module ends exactly as [`run_fmsa_pipeline`] leaves it. For tests.
pub fn run_fmsa_pipeline_key_audited(
    module: &mut Module,
    opts: &FmsaOptions,
    pipe: &PipelineOptions,
) -> (FmsaStats, KeyAudit) {
    let mut audit = KeyAudit::default();
    let stats = run_pipeline(module, opts, pipe, None, Some(&mut audit));
    (stats, audit)
}

fn run_pipeline(
    module: &mut Module,
    opts: &FmsaOptions,
    pipe: &PipelineOptions,
    mut audit: Option<&mut GateAudit>,
    mut key_audit: Option<&mut KeyAudit>,
) -> FmsaStats {
    if opts.oracle {
        return run_fmsa(module, opts);
    }
    let _pass_span = trace::span("fmsa", "pass");
    let threads = pipe.resolved_threads();
    let faults = pipe.faults;
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("thread pool");
    let cm = CostModel::new(opts.arch);
    let mut stats = FmsaStats { size_before: cm.module_size(module), ..FmsaStats::default() };
    let mut pstats = PipelineStats { threads, ..PipelineStats::default() };

    // Seed fingerprints and the candidate-search index with the exact
    // same helper as the sequential driver (part of the bit-identity
    // guarantee).
    let SeededPass { mut fingerprints, mut index, mut worklist, mut live } =
        seed_pass(module, opts, &mut stats.timers, (threads > 1).then_some(&pool));

    // Pipeline-only state: the linearization cache, the incremental
    // call-site index, and per-function mutation generations used to
    // re-validate speculative work.
    let mut lin_cache = LinearizationCache::new();
    let mut call_sites = CallSiteIndex::build(module);
    let mut gens: HashMap<FuncId, u64> = HashMap::new();
    let mut epoch: u64 = 0;
    let gen_of = |gens: &HashMap<FuncId, u64>, f: FuncId| gens.get(&f).copied().unwrap_or(0);

    // Speculative codegen holds one scratch module per prepared pair the
    // Δ bound cannot rule out until the commit stage consumes (or
    // discards) it; an unbounded
    // generation over a multi-thousand-subject frontier would pin tens of
    // thousands of them at once. When the user leaves `batch` at 0, bound
    // the generation while speculating — batching is decision-neutral
    // (property-tested), it only trades barrier count for peak memory.
    const SPEC_DEFAULT_BATCH: usize = 256;
    let batch = if pipe.batch == 0 && threads > 1 && pipe.spec_depth > 0 {
        SPEC_DEFAULT_BATCH
    } else {
        pipe.batch
    };

    while !worklist.is_empty() {
        pstats.generations += 1;
        let _gen_span = trace::span_with("fmsa", "generation", || {
            vec![("gen", pstats.generations.to_string())]
        });
        // ---------------------------------------------------- schedule
        let take = if batch == 0 { worklist.len() } else { batch.min(worklist.len()) };
        let mut subjects = Vec::with_capacity(take);
        for _ in 0..take {
            let f = worklist.pop_front().expect("worklist non-empty");
            if live.contains(&f) && module.is_live(f) {
                subjects.push(f);
            }
        }
        if subjects.is_empty() {
            continue;
        }
        // Freeze the type store while the module is quiescent: every
        // scratch module the speculative wave builds then shares the
        // store's frozen prefix by reference (copy-on-write) instead of
        // deep-copying it per speculation. Invisible to interning
        // semantics (ids, dedupe, order), so bit-identity is unaffected.
        if threads > 1 && pipe.spec_depth > 0 {
            module.types.freeze();
        }
        let sched_span = trace::span("fmsa", "schedule");
        let t0 = Instant::now();
        let scheduled: Vec<(FuncId, Vec<Candidate>)> = {
            // Queries only read the index and the fingerprint map
            // (`CandidateSearch` is `Send + Sync` for exactly this), and
            // `par_map` returns results in input order, so parallel
            // scheduling is candidate-for-candidate identical to the
            // serial loop. At one thread `par_map` runs inline.
            let shared_index: &dyn crate::search::CandidateSearch = index.as_ref();
            let fps = &fingerprints;
            let query_cpu = AtomicU64::new(0);
            let out = pool.par_map(&subjects, |_, &f| {
                let _s = trace::span("fmsa", "query");
                let t = Instant::now();
                let cands =
                    shared_index.candidates(f, &fps[&f], fps, opts.threshold, opts.min_similarity);
                query_cpu.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                (f, cands)
            });
            pstats.schedule_cpu += Duration::from_nanos(query_cpu.into_inner());
            out
        };
        let dt = t0.elapsed();
        stats.timers.ranking += dt;
        pstats.schedule += dt;
        pstats.schedule_query += dt;
        drop(sched_span);

        // ----------------------------------------------------- prepare
        let mut prepared: HashMap<(FuncId, FuncId), Prepared> = HashMap::new();
        if threads > 1 {
            let _prep_span = trace::span("fmsa", "prepare");
            let mut jobs: Vec<(FuncId, FuncId)> = Vec::new();
            let mut seen: HashSet<(FuncId, FuncId)> = HashSet::new();
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
            pstats.schedule_cpu += lin_cache.prefill(module, &lin_funcs, &pool);
            let dt = t0.elapsed();
            stats.timers.linearization += dt;
            pstats.schedule += dt;
            pstats.schedule_prefill += dt;
            let t0 = Instant::now();
            let frozen: &Module = module;
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
                    let (n1, n2) = (&frozen.func(f1).name, &frozen.func(f2).name);
                    if faults.fires(FaultSite::Align, n1, n2) {
                        panic!("injected fault: align {n1} {n2}");
                    }
                    align_and_bound(frozen, &cm, f1, f2, lin1, lin2, opts)
                }))
                .ok();
                job_cpu.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                r
            });
            stats.timers.alignment += t0.elapsed();
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
                let gens_pair = (gen_of(&gens, f1), gen_of(&gens, f2));
                prepared.insert(
                    (f1, f2),
                    Prepared {
                        alignment: gated.alignment,
                        bound: gated.bound,
                        spec: None,
                        gens: gens_pair,
                        epoch,
                    },
                );
            }

            // Second wave: speculative merge codegen into per-worker
            // scratch modules, for each subject's top `spec_depth`
            // candidates in rank order that the Δ bound cannot rule out.
            // The greedy commit stage code-generates those until the first
            // profitable one, so every body built here for a pair the
            // commit actually reaches replaces one sequential codegen with
            // a cheap transplant.
            if pipe.spec_depth > 0 {
                let _spec_span = trace::span("fmsa", "spec_codegen");
                let mut spec_jobs: Vec<(FuncId, FuncId)> = Vec::new();
                let mut seen: HashSet<(FuncId, FuncId)> = HashSet::new();
                for (f1, cands) in &scheduled {
                    let mut picked = 0usize;
                    for c in cands {
                        if picked >= pipe.spec_depth {
                            break;
                        }
                        let key = (*f1, c.func);
                        let Some(p) = prepared.get(&key) else { continue };
                        // A pair whose bound is ≤ 0 is never built here,
                        // even a fallback shape whose skip still needs a
                        // missing pointer type: by commit an earlier build
                        // has usually interned it, and if not, commit
                        // builds the pair inline.
                        let ruled_out = p.bound.as_ref().is_some_and(|b| b.bound <= 0);
                        if !ruled_out && p.alignment.is_some() && seen.insert(key) {
                            spec_jobs.push(key);
                            picked += 1;
                        }
                    }
                }
                let t0 = Instant::now();
                let frozen: &Module = module;
                let cache: &LinearizationCache = &lin_cache;
                let snapshot: &HashMap<(FuncId, FuncId), Prepared> = &prepared;
                // Fault boundary: speculative work is redundant by
                // construction (commit can always regenerate inline), so
                // a panicked or poisoned build degrades to `None` — the
                // fallback path — and never decides a quarantine.
                let spec_cpu = AtomicU64::new(0);
                let bodies = pool.par_map(&spec_jobs, |_, &(f1, f2)| {
                    let _s = trace::span("fmsa", "speculate");
                    let t = Instant::now();
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        let seq1 = &cache.cached(f1).expect("pre-filled").entries;
                        let seq2 = &cache.cached(f2).expect("pre-filled").entries;
                        let (n1, n2) = (&frozen.func(f1).name, &frozen.func(f2).name);
                        if faults.fires(FaultSite::Codegen, n1, n2) {
                            panic!("injected fault: codegen {n1} {n2}");
                        }
                        let alignment = snapshot[&(f1, f2)]
                            .alignment
                            .clone()
                            .expect("speculation only targets aligned pairs");
                        let mut body =
                            speculate_merge(frozen, f1, f2, seq1, seq2, alignment, &opts.merge)
                                .ok();
                        if let Some(b) = body.as_mut() {
                            if faults.fires(FaultSite::ScratchPoison, n1, n2) {
                                b.poison_scratch();
                            }
                        }
                        body
                    }))
                    .ok();
                    spec_cpu.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    r
                });
                stats.timers.codegen += t0.elapsed();
                pstats.prepare += t0.elapsed();
                pstats.spec_codegen += t0.elapsed();
                pstats.prepare_cpu += Duration::from_nanos(spec_cpu.into_inner());
                for (key, body) in spec_jobs.into_iter().zip(bodies) {
                    let body = match body {
                        Some(b) => b,
                        None => {
                            pstats.panics_caught += 1;
                            None
                        }
                    };
                    if let Some(b) = &body {
                        pstats.spec_built += 1;
                        let setup = b.scratch_setup();
                        if setup.is_fully_shared() {
                            pstats.scratch_cow_shared += 1;
                        } else {
                            pstats.scratch_cloned += 1;
                        }
                        pstats.scratch_suffix_types += b.suffix_types();
                        pstats.scratch_bytes_avoided += setup.bytes_avoided();
                    }
                    // A build error is left as `None`: commit will replay
                    // the identical failure through direct codegen.
                    prepared.get_mut(&key).expect("prepared above").spec = body;
                }
            }
        }

        // ------------------------------------------------------ commit
        // `dirty` flips on the first commit of the generation: from then
        // on the index may answer differently than it did at schedule
        // time, so candidate lists are re-queried (exactly what the
        // sequential driver would see at this point of the worklist).
        let commit_span = trace::span("fmsa", "commit");
        let t_commit = Instant::now();
        let mut dirty = false;
        // Deferred call-graph work of the generation's batch-eligible
        // merges (thunk bodies, removal confirmation), executed through
        // one barrier by `flush_batch` — at generation end, or earlier
        // when an ineligible merge must commit immediately.
        let mut plan = RewritePlan::new();
        let mut pending_expect: Vec<(Disposition, Disposition)> = Vec::new();
        for (f1, scheduled_cands) in scheduled {
            if !live.contains(&f1) || !module.is_live(f1) {
                continue;
            }
            let cands = if dirty {
                let t0 = Instant::now();
                let c = index.candidates(
                    f1,
                    &fingerprints[&f1],
                    &fingerprints,
                    opts.threshold,
                    opts.min_similarity,
                );
                stats.timers.ranking += t0.elapsed();
                c
            } else {
                scheduled_cands
            };

            for (pos, cand) in cands.iter().enumerate() {
                stats.attempted += 1;
                let t0 = Instant::now();
                let lin1 = lin_cache.get(module, f1);
                let lin2 = lin_cache.get(module, cand.func);
                stats.timers.linearization += t0.elapsed();
                if let Some(a) = key_audit.as_deref_mut() {
                    a.check(&lin_cache, module, f1);
                    a.check(&lin_cache, module, cand.func);
                }
                let (seq1, seq2) = (&lin1.entries, &lin2.entries);
                let gens_now = (gen_of(&gens, f1), gen_of(&gens, cand.func));
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
                // Did this attempt discard a speculative body (conflict /
                // fallback)? A merge that still commits is then reported
                // as `conflict-fallback` instead of plain `merged`.
                let mut att_fallback = false;
                let mut spec_body: Option<SpeculativeMerge> = None;
                let (alignment, bound) = match prepared.get_mut(&(f1, cand.func)) {
                    Some(p) if p.gens == gens_now && p.epoch == epoch => {
                        pstats.reused += 1;
                        spec_body = p.spec.take();
                        (p.alignment.clone(), p.bound.take())
                    }
                    stale => {
                        if threads > 1 {
                            pstats.recomputed += 1;
                        }
                        // Conflict rule: an input mutated since scheduling
                        // (or the epoch advanced), so the scratch body was
                        // built against a state the module no longer has.
                        // Discard and count it here — the recomputed pair
                        // may be budget- or gate-skipped before reaching
                        // the codegen point below.
                        if let Some(p) = stale {
                            if p.spec.take().is_some() {
                                pstats.spec_fallback += 1;
                                att_fallback = true;
                            }
                        }
                        let t0 = Instant::now();
                        // Fault boundary: this inline recompute is the
                        // authoritative alignment (it also runs for pairs
                        // whose prepare worker panicked), so a panic here
                        // quarantines the pair — deterministically, since
                        // nothing on this path depends on thread count.
                        let recomputed = catch_unwind(AssertUnwindSafe(|| {
                            if faults.fires(FaultSite::Align, &n1, &n2) {
                                panic!("injected fault: align {n1} {n2}");
                            }
                            align_and_bound(module, &cm, f1, cand.func, &lin1, &lin2, opts)
                        }));
                        stats.timers.alignment += t0.elapsed();
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
                                stats.decisions.push(rec(None, None, DecisionOutcome::Quarantined));
                                continue;
                            }
                        }
                    }
                };
                let align_score = alignment.as_ref().map(|al| al.score);
                let Some(alignment) = alignment else {
                    pstats.budget_skipped += 1;
                    stats.decisions.push(rec(None, None, DecisionOutcome::BudgetSkipped));
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
                    // ≤ 0, so the sequential driver would have generated
                    // and discarded this merge. Skip codegen (prepare
                    // never speculates on such a pair), replaying the
                    // types the discarded build would have left behind.
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
                            &opts.merge,
                        );
                    }
                    b.replay_skip(&mut module.types);
                    pstats.gate_skipped += 1;
                    stats.decisions.push(rec(align_score, None, DecisionOutcome::GateSkipped));
                    continue;
                }
                let t0 = Instant::now();
                // An injected verifier fault must produce the same
                // quarantine at every thread count, so it is decided on
                // the inline path below (the only path all thread counts
                // share); a pending speculative body is discarded first.
                let verify_inject = faults.fires(FaultSite::Verify, &n1, &n2);
                if verify_inject {
                    if let Some(spec) = spec_body.take() {
                        spec.discard_into(module);
                        pstats.spec_fallback += 1;
                        att_fallback = true;
                    }
                }
                // A speculative body built on another thread is only
                // trusted after re-verifying it in its scratch module —
                // a corrupted build must degrade to inline codegen (the
                // sequential result), never reach the main module.
                if spec_body.as_ref().is_some_and(|spec| !spec.body_valid()) {
                    if let Some(spec) = spec_body.take() {
                        spec.discard_into(module);
                    }
                    pstats.poisoned_scratch += 1;
                    pstats.spec_fallback += 1;
                    att_fallback = true;
                }
                // `outcome`: a merged function present in the module plus
                // its profitability, or `None` when the attempt is over
                // (codegen failure, a quarantined pair, or a speculative
                // body that evaluated unprofitable and was discarded
                // without a transplant).
                let mut att_early: Option<DecisionRecord> = None;
                let outcome: Option<(MergeInfo, ProfitReport)> = 'attempt: {
                    if let Some(spec) = spec_body {
                        // Profitability is decided on the scratch body;
                        // only profitable merges pay for a transplant.
                        let report = evaluate_speculative(module, &cm, &spec, &call_sites);
                        if let (Some(a), Some(b)) = (audit.as_deref_mut(), bound.as_ref()) {
                            a.check_built(module, f1, cand.func, b, report.delta);
                        }
                        if !report.is_profitable() {
                            // The sequential driver would have generated
                            // this body and discarded it; replay its type
                            // interning and reject the attempt.
                            spec.discard_into(module);
                            pstats.spec_used += 1;
                            pstats.gate_missed += 1;
                            att_early = Some(rec(
                                align_score,
                                Some(report.delta),
                                DecisionOutcome::Unprofitable,
                            ));
                            break 'attempt None;
                        }
                        let t_tr = Instant::now();
                        match commit_speculative(module, spec, &opts.merge) {
                            Ok(info) => {
                                pstats.transplant += t_tr.elapsed();
                                let errs = fmsa_ir::verify_function(module, info.merged);
                                if errs.is_empty() {
                                    pstats.spec_used += 1;
                                    pstats.spec_committed += 1;
                                    break 'attempt Some((info, report));
                                }
                                // Invalid transplant: the sequential
                                // driver would have built this body inline
                                // successfully, so degrade (no quarantine)
                                // and regenerate below.
                                module.remove_function(info.merged);
                                pstats.poisoned_scratch += 1;
                                pstats.spec_fallback += 1;
                                att_fallback = true;
                            }
                            Err(_) => {
                                // Unresolvable cross-module reference:
                                // regenerate inline below.
                                pstats.spec_fallback += 1;
                                att_fallback = true;
                            }
                        }
                    }
                    // Authoritative inline codegen, behind a fault
                    // boundary: this path runs identically at every
                    // thread count, so its panics (and verifier
                    // rejections of its output) decide quarantine.
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
                            &opts.merge,
                        )
                    }));
                    let info = match built {
                        Ok(Ok(info)) => info,
                        Ok(Err(_)) => {
                            att_early = Some(rec(align_score, None, DecisionOutcome::Failed));
                            break 'attempt None;
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
                            if stats.quarantine.push(
                                QuarantineStage::Codegen,
                                &n1,
                                &n2,
                                panic_message(payload.as_ref()),
                                faults.seed,
                            ) {
                                pstats.quarantined_codegen += 1;
                            }
                            att_early = Some(rec(align_score, None, DecisionOutcome::Quarantined));
                            break 'attempt None;
                        }
                    };
                    // Never commit an unverified merged body: a rejection
                    // here is a real bug in codegen (or an injected
                    // verifier fault), so the pair is quarantined.
                    let errs = fmsa_ir::verify_function(module, info.merged);
                    if verify_inject || !errs.is_empty() {
                        let reason = if verify_inject {
                            format!("injected fault: verify {n1} {n2}")
                        } else {
                            errs[0].to_string()
                        };
                        module.remove_function(info.merged);
                        if stats.quarantine.push(
                            QuarantineStage::Verify,
                            &n1,
                            &n2,
                            reason,
                            faults.seed,
                        ) {
                            pstats.quarantined_verify += 1;
                        }
                        att_early = Some(rec(align_score, None, DecisionOutcome::Quarantined));
                        break 'attempt None;
                    }
                    let report = evaluate_indexed(module, &cm, &info, &call_sites);
                    if let (Some(a), Some(b)) = (audit.as_deref_mut(), bound.as_ref()) {
                        a.check_built(module, f1, cand.func, b, report.delta);
                    }
                    Some((info, report))
                };
                stats.timers.codegen += t0.elapsed();
                pstats.commit_codegen += t0.elapsed();
                match outcome {
                    Some((info, report)) if report.is_profitable() => {
                        let pool_ref = (threads > 1).then_some(&pool);
                        // Batch eligibility — the merge's call-graph
                        // update must provably interact with nothing else
                        // in the generation: every deletable side has
                        // zero callers to rewrite (after the serial
                        // loop's own filters), neither side is a merged
                        // function still pending in the batch, and the
                        // merged body is already final (it calls neither
                        // its own originals nor anything the batch
                        // retired). Such a commit touches no third
                        // function, so its bookkeeping can run eagerly
                        // and its body work can wait for the flush.
                        let deletable = [can_delete(module, f1), can_delete(module, info.f2)];
                        let callers_clear = [(f1, deletable[0]), (info.f2, deletable[1])]
                            .into_iter()
                            .all(|(func, del)| {
                                !del || call_sites.callers_of(func).into_iter().all(|g| {
                                    g == func || plan.retired().contains(&g) || !module.is_live(g)
                                })
                            });
                        let defer = callers_clear
                            && !plan.merged_funcs().contains(&f1)
                            && !plan.merged_funcs().contains(&info.f2)
                            && {
                                let merged_out = outgoing_calls(module.func(info.merged));
                                !merged_out.contains_key(&f1)
                                    && !merged_out.contains_key(&info.f2)
                                    && merged_out.keys().all(|c| !plan.retired().contains(c))
                            };
                        if defer {
                            let t0 = Instant::now();
                            let dispositions = deletable.map(|d| {
                                if d {
                                    Disposition::Deleted
                                } else {
                                    Disposition::Thunk
                                }
                            });
                            // Serial commit would intern the thunk-side
                            // cast container types right now; replay that
                            // eagerly so the deferred execution leaves
                            // the type store bit-identical.
                            if prepare_commit_casts(module, &info).is_err() {
                                // Mirror the immediate path's failed
                                // commit: drop the merge, resynchronize,
                                // abandon the subject.
                                flush_batch(
                                    module,
                                    &mut plan,
                                    &mut pending_expect,
                                    pool_ref,
                                    &mut stats,
                                    &mut pstats,
                                    &mut call_sites,
                                    &mut lin_cache,
                                    &mut epoch,
                                    &mut dirty,
                                );
                                module.remove_function(info.merged);
                                stats.decisions.push(rec(
                                    align_score,
                                    Some(report.delta),
                                    DecisionOutcome::Failed,
                                ));
                                call_sites = CallSiteIndex::build(module);
                                lin_cache = LinearizationCache::new();
                                epoch += 1;
                                dirty = true;
                                break;
                            }
                            plan.add_merge(module, &info, &call_sites);
                            pending_expect.push((dispositions[0], dispositions[1]));
                            stats.timers.update_calls += t0.elapsed();
                            pstats.rewrite += t0.elapsed();
                            pstats.batched_merges += 1;
                            stats.merges += 1;
                            stats.rank_positions.push(pos + 1);
                            stats.decisions.push(rec(
                                align_score,
                                Some(report.delta),
                                if att_fallback {
                                    DecisionOutcome::ConflictFallback
                                } else {
                                    DecisionOutcome::Merged
                                },
                            ));
                            for d in dispositions {
                                match d {
                                    Disposition::Deleted => stats.deleted += 1,
                                    Disposition::Thunk => stats.thunks += 1,
                                }
                            }
                            live.remove(&f1);
                            live.remove(&info.f2);
                            fingerprints.remove(&f1);
                            fingerprints.remove(&info.f2);
                            index.remove(f1);
                            index.remove(info.f2);
                            for (func, disposition) in
                                [(f1, dispositions[0]), (info.f2, dispositions[1])]
                            {
                                lin_cache.invalidate(func);
                                match disposition {
                                    Disposition::Deleted => {
                                        call_sites.remove(func);
                                        gens.remove(&func);
                                        // Eager removal keeps liveness
                                        // and `func_by_name` (merged-name
                                        // deduplication) identical to the
                                        // serial driver; the flush's
                                        // re-removal is a no-op.
                                        module.remove_function(func);
                                    }
                                    Disposition::Thunk => {
                                        call_sites.set_thunk(func, info.merged);
                                        *gens.entry(func).or_insert(0) += 1;
                                    }
                                }
                            }
                            // No caller is touched (that is what the
                            // eligibility rules guarantee), and the
                            // merged body is final: its index entry and
                            // fingerprint are exact now.
                            call_sites.refresh(module, info.merged);
                            let t0 = Instant::now();
                            let merged_fp = Fingerprint::of(module, info.merged);
                            index.insert(info.merged, &merged_fp);
                            fingerprints.insert(info.merged, merged_fp);
                            stats.timers.fingerprinting += t0.elapsed();
                            live.insert(info.merged);
                            worklist.push_back(info.merged);
                            dirty = true;
                            break; // greedy: first profitable candidate wins
                        }
                        // Ineligible: the pending batch precedes this
                        // merge in serial order, so flush it first, then
                        // commit through an immediate single-merge plan.
                        flush_batch(
                            module,
                            &mut plan,
                            &mut pending_expect,
                            pool_ref,
                            &mut stats,
                            &mut pstats,
                            &mut call_sites,
                            &mut lin_cache,
                            &mut epoch,
                            &mut dirty,
                        );
                        pstats.batch_fallback += 1;
                        let t0 = Instant::now();
                        // Call-graph update through the partitioned plan:
                        // callers come from the incremental call-site
                        // index, disjoint caller partitions rewrite on the
                        // worker pool. Single-threaded runs execute the
                        // partitions inline (no pool handoff).
                        let commit =
                            match commit_merge_partitioned(module, &info, &call_sites, pool_ref) {
                                Ok(c) => c,
                                Err(_) => {
                                    // Should not happen (guarded by tests).
                                    // Mirror the sequential driver: drop the
                                    // merge and abandon this subject. The
                                    // failed commit may have partially
                                    // rewritten call sites, a state the
                                    // per-function generations cannot
                                    // describe, so resynchronize the caches
                                    // with the module and invalidate all
                                    // speculative work.
                                    module.remove_function(info.merged);
                                    stats.decisions.push(rec(
                                        align_score,
                                        Some(report.delta),
                                        DecisionOutcome::Failed,
                                    ));
                                    call_sites = CallSiteIndex::build(module);
                                    lin_cache = LinearizationCache::new();
                                    epoch += 1;
                                    dirty = true;
                                    break;
                                }
                            };
                        stats.timers.update_calls += t0.elapsed();
                        pstats.rewrite += t0.elapsed();
                        pstats.commit_barriers += 1;
                        stats.merges += 1;
                        stats.rank_positions.push(pos + 1);
                        stats.decisions.push(rec(
                            align_score,
                            Some(report.delta),
                            if att_fallback {
                                DecisionOutcome::ConflictFallback
                            } else {
                                DecisionOutcome::Merged
                            },
                        ));
                        for d in [commit.first, commit.second] {
                            match d {
                                Disposition::Deleted => stats.deleted += 1,
                                Disposition::Thunk => stats.thunks += 1,
                            }
                        }
                        // Retire the originals from the merge pool.
                        live.remove(&f1);
                        live.remove(&info.f2);
                        fingerprints.remove(&f1);
                        fingerprints.remove(&info.f2);
                        index.remove(f1);
                        index.remove(info.f2);
                        // Maintain the pipeline caches: mutated functions
                        // get new generations and fresh call-site entries,
                        // deleted ones leave every structure.
                        for (func, disposition) in [(f1, commit.first), (info.f2, commit.second)] {
                            lin_cache.invalidate(func);
                            match disposition {
                                Disposition::Deleted => {
                                    call_sites.remove(func);
                                    gens.remove(&func);
                                }
                                Disposition::Thunk => {
                                    call_sites.refresh(module, func);
                                    *gens.entry(func).or_insert(0) += 1;
                                }
                            }
                        }
                        for &g in &commit.touched {
                            lin_cache.invalidate(g);
                            *gens.entry(g).or_insert(0) += 1;
                            if module.is_live(g) {
                                call_sites.refresh(module, g);
                            } else {
                                call_sites.remove(g);
                            }
                        }
                        call_sites.refresh(module, info.merged);
                        // Feedback loop: rewritten callers re-enter the
                        // index with fresh fingerprints, the merged
                        // function joins the next generation's worklist.
                        let t0 = Instant::now();
                        for g in commit.touched {
                            if live.contains(&g) && module.is_live(g) {
                                let fp = Fingerprint::of(module, g);
                                index.insert(g, &fp);
                                fingerprints.insert(g, fp);
                            }
                        }
                        let merged_fp = Fingerprint::of(module, info.merged);
                        index.insert(info.merged, &merged_fp);
                        fingerprints.insert(info.merged, merged_fp);
                        stats.timers.fingerprinting += t0.elapsed();
                        live.insert(info.merged);
                        worklist.push_back(info.merged);
                        dirty = true;
                        break; // greedy: first profitable candidate wins
                    }
                    Some((info, report)) => {
                        module.remove_function(info.merged);
                        pstats.gate_missed += 1;
                        stats.decisions.push(rec(
                            align_score,
                            Some(report.delta),
                            DecisionOutcome::Unprofitable,
                        ));
                    }
                    None => {
                        if let Some(r) = att_early.take() {
                            stats.decisions.push(r);
                        }
                    }
                }
            }
        }
        // End-of-generation flush: nothing pends across generations —
        // the next schedule must see final bodies before freezing the
        // type store and handing shared references to the workers.
        flush_batch(
            module,
            &mut plan,
            &mut pending_expect,
            (threads > 1).then_some(&pool),
            &mut stats,
            &mut pstats,
            &mut call_sites,
            &mut lin_cache,
            &mut epoch,
            &mut dirty,
        );
        let _ = dirty;
        pstats.commit += t_commit.elapsed();
        drop(commit_span);
    }

    stats.size_after = cm.module_size(module);
    stats.pipeline = Some(pstats);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmsa_ir::printer::print_module;
    use fmsa_ir::{FuncBuilder, Value};

    fn clone_family(m: &mut Module, count: usize, body_len: usize) -> Vec<FuncId> {
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
            v = b.xor(v, b.const_i32(k as i32 + 100));
            b.ret(Some(v));
            out.push(f);
        }
        out
    }

    fn assert_matches_sequential(opts: &FmsaOptions, pipe: &PipelineOptions) {
        let mut m1 = Module::new("m");
        clone_family(&mut m1, 6, 12);
        let seq = run_fmsa(&mut m1, opts);
        let mut m2 = Module::new("m");
        clone_family(&mut m2, 6, 12);
        let par = run_fmsa_pipeline(&mut m2, opts, pipe);
        assert_eq!(print_module(&m1), print_module(&m2), "module text must be bit-identical");
        assert_eq!(seq.merges, par.merges);
        assert_eq!(seq.attempted, par.attempted);
        assert_eq!(seq.rank_positions, par.rank_positions);
        assert_eq!(seq.size_after, par.size_after);
        assert_eq!((seq.deleted, seq.thunks), (par.deleted, par.thunks));
    }

    #[test]
    fn single_thread_matches_sequential() {
        assert_matches_sequential(
            &FmsaOptions::with_threshold(5),
            &PipelineOptions::with_threads(1),
        );
    }

    #[test]
    fn multi_thread_matches_sequential() {
        for threads in [2, 4, 8] {
            assert_matches_sequential(
                &FmsaOptions::with_threshold(5),
                &PipelineOptions::with_threads(threads),
            );
        }
    }

    #[test]
    fn small_batches_match_sequential() {
        for batch in [1, 2, 3] {
            assert_matches_sequential(
                &FmsaOptions::with_threshold(5),
                &PipelineOptions { threads: 4, batch, ..PipelineOptions::default() },
            );
        }
    }

    #[test]
    fn lsh_pipeline_matches_lsh_sequential() {
        assert_matches_sequential(&FmsaOptions::with_lsh(5), &PipelineOptions::with_threads(4));
    }

    #[test]
    fn oracle_delegates_to_sequential() {
        let mut m1 = Module::new("m");
        clone_family(&mut m1, 5, 10);
        let seq = run_fmsa(&mut m1, &FmsaOptions::oracle());
        let mut m2 = Module::new("m");
        clone_family(&mut m2, 5, 10);
        let par =
            run_fmsa_pipeline(&mut m2, &FmsaOptions::oracle(), &PipelineOptions::with_threads(4));
        assert_eq!(print_module(&m1), print_module(&m2));
        assert!(par.pipeline.is_none(), "oracle runs report sequential stats");
        assert_eq!(seq.merges, par.merges);
    }

    #[test]
    fn pipeline_reports_telemetry() {
        let mut m = Module::new("m");
        clone_family(&mut m, 6, 12);
        let stats = run_fmsa_pipeline(
            &mut m,
            &FmsaOptions::with_threshold(5),
            &PipelineOptions::with_threads(4),
        );
        let p = stats.pipeline.expect("pipeline stats");
        assert_eq!(p.threads, 4);
        assert!(p.generations >= 1);
        assert!(p.prepared > 0);
        assert!(p.reused > 0);
        assert!(fmsa_ir::verify_module(&m).is_empty());
    }

    #[test]
    fn speculative_codegen_depths_match_sequential() {
        // 0 = PR 2 behaviour (no speculation), 1 = top candidate only,
        // MAX = every prepared pair; all must be decision-invisible.
        for spec_depth in [0, 1, usize::MAX] {
            assert_matches_sequential(
                &FmsaOptions::with_threshold(5),
                &PipelineOptions { threads: 4, spec_depth, ..PipelineOptions::default() },
            );
        }
    }

    #[test]
    fn speculative_bodies_are_built_and_committed() {
        let mut m = Module::new("m");
        clone_family(&mut m, 6, 12);
        let stats = run_fmsa_pipeline(
            &mut m,
            &FmsaOptions::with_threshold(5),
            &PipelineOptions::with_threads(4),
        );
        let p = stats.pipeline.expect("pipeline stats");
        assert!(p.spec_built > 0, "prepare must build speculative bodies: {p:?}");
        assert!(p.spec_committed > 0, "commit must transplant fresh bodies: {p:?}");
        assert!(p.spec_committed <= p.spec_used, "transplants are a subset of used: {p:?}");
        assert!(
            p.spec_used + p.spec_fallback <= p.spec_built + p.recomputed,
            "accounting sanity: {p:?}"
        );
        assert!(fmsa_ir::verify_module(&m).is_empty());
    }

    #[test]
    fn scratch_stores_are_cow_shared_and_rewrite_timer_reported() {
        let mut m = Module::new("m");
        clone_family(&mut m, 6, 12);
        let stats = run_fmsa_pipeline(
            &mut m,
            &FmsaOptions::with_threshold(5),
            &PipelineOptions::with_threads(4),
        );
        let p = stats.pipeline.expect("pipeline stats");
        assert!(p.spec_built > 0, "speculation must run: {p:?}");
        assert_eq!(
            p.scratch_cow_shared + p.scratch_cloned,
            p.spec_built,
            "every built body accounts its scratch setup: {p:?}"
        );
        // The store is frozen at schedule time, so at least the first
        // generation's scratches share it entirely by reference.
        assert!(p.scratch_cow_shared > 0, "frozen donor must be COW-shared: {p:?}");
        assert!(p.scratch_bytes_avoided > 0, "{p:?}");
        assert!(p.rewrite > Duration::ZERO, "commits must book rewrite time: {p:?}");
        assert!(p.rewrite <= p.commit, "{p:?}");
    }

    #[test]
    fn generation_commits_are_batched() {
        // Clone families are internal with no callers, so merges are
        // batch-eligible unless a subject picks a merged function still
        // pending in the batch (a fallback, flushed and committed
        // immediately). Either way, every merge is accounted once and
        // the barrier count stays below one-per-merge.
        let mut m = Module::new("m");
        clone_family(&mut m, 8, 12);
        let stats = run_fmsa_pipeline(
            &mut m,
            &FmsaOptions::with_threshold(5),
            &PipelineOptions::with_threads(4),
        );
        let p = stats.pipeline.expect("pipeline stats");
        assert_eq!(p.batched_merges + p.batch_fallback, stats.merges, "{p:?}");
        assert!(p.batched_merges > 0, "eligible merges must defer: {p:?}");
        assert!(
            p.commit_barriers <= 2 * p.batch_fallback + p.generations,
            "per fallback: one flush plus one immediate barrier; plus at most one \
             flush per generation: {p:?}"
        );
        assert!(p.commit_barriers < stats.merges || stats.merges <= 1, "{p:?}");
        assert!(fmsa_ir::verify_module(&m).is_empty());
    }

    #[test]
    fn schedule_timers_split_query_and_prefill() {
        let mut m = Module::new("m");
        clone_family(&mut m, 8, 12);
        let stats = run_fmsa_pipeline(
            &mut m,
            &FmsaOptions::with_threshold(5),
            &PipelineOptions::with_threads(4),
        );
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
    fn spec_hit_rate_reported() {
        let p = PipelineStats { spec_used: 3, spec_fallback: 1, ..PipelineStats::default() };
        assert_eq!(p.spec_hit_rate(), Some(0.75));
        assert_eq!(PipelineStats::default().spec_hit_rate(), None);
    }

    #[test]
    fn injected_faults_quarantine_deterministically() {
        use crate::faults::{FaultPlan, FaultSite};
        crate::faults::silence_injected_panics();
        // High rate so the small family reliably faults somewhere.
        let plan = FaultPlan::new(0xFA17, 400_000, &FaultSite::ALL);
        let mut baseline = None;
        for threads in [1usize, 2, 4] {
            let mut m = Module::new("m");
            clone_family(&mut m, 6, 12);
            let stats = run_fmsa_pipeline(
                &mut m,
                &FmsaOptions::with_threshold(5),
                &PipelineOptions { threads, faults: plan, ..PipelineOptions::default() },
            );
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

    #[test]
    fn scratch_poison_degrades_without_quarantine() {
        use crate::faults::{FaultPlan, FaultSite};
        // Poison every scratch body: the pipeline must fall back to
        // inline codegen everywhere and still produce the clean output.
        let plan = FaultPlan::new(3, 1_000_000, &[FaultSite::ScratchPoison]);
        let mut clean = Module::new("m");
        clone_family(&mut clean, 6, 12);
        run_fmsa_pipeline(
            &mut clean,
            &FmsaOptions::with_threshold(5),
            &PipelineOptions::with_threads(4),
        );
        let mut m = Module::new("m");
        clone_family(&mut m, 6, 12);
        let stats = run_fmsa_pipeline(
            &mut m,
            &FmsaOptions::with_threshold(5),
            &PipelineOptions { threads: 4, faults: plan, ..PipelineOptions::default() },
        );
        let p = stats.pipeline.expect("pipeline stats");
        assert!(p.poisoned_scratch > 0, "poison must be detected: {p:?}");
        assert_eq!(p.quarantined(), 0, "degradation, not quarantine: {p:?}");
        assert!(stats.quarantine.is_empty());
        assert!(stats.merges > 0, "merges still happen via the inline path");
        assert_eq!(print_module(&clean), print_module(&m), "output unchanged by poison");
    }

    #[test]
    fn budget_skip_abandons_pairs() {
        use fmsa_align::{AlignmentBudget, BudgetFallback};
        let mut m = Module::new("m");
        clone_family(&mut m, 4, 12);
        let opts = FmsaOptions {
            budget: AlignmentBudget {
                full_matrix_cells: usize::MAX,
                fallback: BudgetFallback::Skip,
                max_len: 4, // every family member is longer than this
            },
            ..FmsaOptions::with_threshold(5)
        };
        let stats = run_fmsa_pipeline(&mut m, &opts, &PipelineOptions::with_threads(2));
        assert_eq!(stats.merges, 0);
        assert!(stats.pipeline.expect("stats").budget_skipped > 0);
    }
}
