//! The FMSA optimization driver (paper §IV, Fig. 7).
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
//! The driver instruments each step with a timer so the harness can
//! regenerate the paper's compile-time breakdown (Fig. 13).

// This module *implements* the deprecated `FmsaOptions` surface; the
// replacement ([`crate::Config`]) converts into it.
#![allow(deprecated)]

use crate::fingerprint::Fingerprint;
use crate::linearize::linearize;
use crate::merge::{align_with, merge_pair_aligned, MergeConfig, MergeInfo};
use crate::profitability::{evaluate, ProfitReport};
use crate::search::SearchStrategy;
use crate::telemetry::{trace, DecisionOutcome, DecisionRecord};
use crate::thunks::commit_merge;
use fmsa_ir::{FuncId, Module};
use fmsa_target::{CostModel, TargetArch};
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// Options controlling one run of the FMSA pass.
#[deprecated(
    since = "0.7.0",
    note = "use `fmsa_core::Config` (and `fmsa_core::optimize`); `Config::fmsa_options()` \
            converts for the low-level drivers"
)]
#[derive(Debug, Clone)]
pub struct FmsaOptions {
    /// Exploration threshold `t`: how many top-ranked candidates to try per
    /// function (paper evaluates t = 1, 5, 10).
    pub threshold: usize,
    /// Oracle mode: evaluate *every* candidate and commit the most
    /// profitable one — the paper's unrealistic quadratic upper bound.
    /// Forces [`SearchStrategy::Exact`] regardless of [`FmsaOptions::search`]
    /// (a shortlist would invalidate the upper-bound claim).
    pub oracle: bool,
    /// Target whose TTI-like cost model drives profitability.
    pub arch: TargetArch,
    /// Per-pair merge configuration.
    pub merge: MergeConfig,
    /// Function names excluded from merging (the paper's profile-guided
    /// hot-function exclusion, §V-D).
    pub exclude: HashSet<String>,
    /// Candidates below this similarity are never attempted.
    pub min_similarity: f64,
    /// Canonicalize intra-block instruction order before merging — the
    /// paper's future-work extension ("allowing instruction reordering to
    /// maximize the number of matches"). Semantics-preserving; makes
    /// reordered clones align.
    pub canonicalize: bool,
    /// How merge candidates are searched: the paper's exact pairwise
    /// scan, near-linear MinHash/LSH shortlisting, or (the default)
    /// automatic selection by module size (see [`crate::search`] and
    /// [`crate::search::AUTO_SEARCH_CROSSOVER`]).
    pub search: SearchStrategy,
    /// Per-pair alignment cost bounds, honoured by the pipeline driver
    /// ([`crate::pipeline`]). The sequential driver ignores it — the
    /// paper's reference behaviour aligns every candidate pair in full —
    /// and the default budget never triggers at paper scale, so the two
    /// drivers stay bit-identical on the evaluated workloads.
    pub budget: fmsa_align::AlignmentBudget,
}

impl Default for FmsaOptions {
    fn default() -> Self {
        FmsaOptions {
            threshold: 1,
            oracle: false,
            arch: TargetArch::X86_64,
            merge: MergeConfig::default(),
            exclude: HashSet::new(),
            min_similarity: 0.0,
            canonicalize: false,
            search: SearchStrategy::Auto,
            budget: fmsa_align::AlignmentBudget::default(),
        }
    }
}

impl FmsaOptions {
    /// Convenience: options with a given exploration threshold.
    pub fn with_threshold(t: usize) -> FmsaOptions {
        FmsaOptions { threshold: t, ..FmsaOptions::default() }
    }

    /// Convenience: oracle (exhaustive) exploration.
    pub fn oracle() -> FmsaOptions {
        FmsaOptions { oracle: true, ..FmsaOptions::default() }
    }

    /// Convenience: LSH candidate search with default parameters.
    pub fn with_lsh(t: usize) -> FmsaOptions {
        FmsaOptions { threshold: t, search: SearchStrategy::lsh(), ..FmsaOptions::default() }
    }
}

/// Wall-clock spent in each step of the optimization — the rows of the
/// paper's Fig. 13 breakdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimers {
    /// Computing and refreshing fingerprints.
    pub fingerprinting: Duration,
    /// Ranking candidates (quadratic in the number of functions).
    pub ranking: Duration,
    /// Linearizing functions.
    pub linearization: Duration,
    /// Needleman-Wunsch alignment (dominant in the paper).
    pub alignment: Duration,
    /// Code generation, parameter merging, and profitability evaluation.
    pub codegen: Duration,
    /// Thunks, call-site rewriting, call-graph update.
    pub update_calls: Duration,
}

impl StepTimers {
    /// Total time across all steps.
    pub fn total(&self) -> Duration {
        self.fingerprinting
            + self.ranking
            + self.linearization
            + self.alignment
            + self.codegen
            + self.update_calls
    }

    /// `(name, seconds)` rows for reporting.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("fingerprinting", self.fingerprinting.as_secs_f64()),
            ("ranking", self.ranking.as_secs_f64()),
            ("linearization", self.linearization.as_secs_f64()),
            ("alignment", self.alignment.as_secs_f64()),
            ("codegen", self.codegen.as_secs_f64()),
            ("updating-calls", self.update_calls.as_secs_f64()),
        ]
    }
}

/// Statistics of one FMSA run.
#[derive(Debug, Clone, Default)]
pub struct FmsaStats {
    /// Committed merge operations.
    pub merges: usize,
    /// Merge attempts (including unprofitable ones that were discarded).
    pub attempted: usize,
    /// For each committed merge, the 1-based rank position of the partner
    /// that won — the data behind the paper's Fig. 8 CDF.
    pub rank_positions: Vec<usize>,
    /// Per-step timers (Fig. 13).
    pub timers: StepTimers,
    /// Module size before the pass, in cost-model bytes.
    pub size_before: u64,
    /// Module size after the pass.
    pub size_after: u64,
    /// Originals deleted outright.
    pub deleted: usize,
    /// Originals kept as thunks.
    pub thunks: usize,
    /// Pipeline-only telemetry; `None` for the sequential driver.
    pub pipeline: Option<crate::pipeline::PipelineStats>,
    /// Pairs the pipeline quarantined instead of merging (caught panics,
    /// verifier rejections). Always empty for the sequential driver,
    /// which has no fault boundaries.
    pub quarantine: crate::quarantine::QuarantineLog,
    /// One structured record per merge attempt: who paired with whom,
    /// similarity, alignment score, Δ, and how it resolved. Bounded;
    /// outcome counts stay exact past the bound (see
    /// [`crate::telemetry::decisions`]).
    pub decisions: crate::telemetry::DecisionLog,
}

impl FmsaStats {
    /// Code-size reduction achieved, in percent.
    pub fn reduction_percent(&self) -> f64 {
        fmsa_target::reduction_percent(self.size_before, self.size_after)
    }
}

/// Runs the FMSA optimization over `module`.
pub fn run_fmsa(module: &mut Module, opts: &FmsaOptions) -> FmsaStats {
    let _pass_span = trace::span("fmsa", "pass");
    let cm = CostModel::new(opts.arch);
    let mut stats = FmsaStats { size_before: cm.module_size(module), ..FmsaStats::default() };

    let SeededPass { mut fingerprints, mut index, mut worklist, mut live } =
        seed_pass(module, opts, &mut stats.timers, None);

    while let Some(f1) = worklist.pop_front() {
        if !live.contains(&f1) || !module.is_live(f1) {
            continue;
        }
        // Query the index for f1's top candidates, scoring borrowed
        // fingerprints straight out of the live map.
        let t0 = Instant::now();
        let threshold = if opts.oracle { usize::MAX } else { opts.threshold };
        let candidates =
            index.candidates(f1, &fingerprints[&f1], &fingerprints, threshold, opts.min_similarity);
        stats.timers.ranking += t0.elapsed();

        let mut best: Option<(usize, MergeInfo, ProfitReport)> = None;
        // Decision records for this subject's attempts. The winning
        // attempt's outcome is fixed up once the commit resolves, then
        // the whole batch lands in `stats.decisions`.
        let mut attempt_recs: Vec<DecisionRecord> = Vec::new();
        let mut best_rec: Option<usize> = None;
        for (pos, cand) in candidates.iter().enumerate() {
            stats.attempted += 1;
            let _att_span = trace::span_with("fmsa", "merge_attempt", || {
                vec![
                    ("subject", module.func(f1).name.clone()),
                    ("candidate", module.func(cand.func).name.clone()),
                ]
            });
            let rec = DecisionRecord {
                subject: module.func(f1).name.clone(),
                candidate: module.func(cand.func).name.clone(),
                similarity: cand.similarity,
                rank: (pos + 1) as u32,
                align_score: None,
                delta: None,
                delta_bound: None,
                outcome: DecisionOutcome::Failed,
            };
            let t0 = Instant::now();
            let seq1 = linearize(module.func(f1));
            let seq2 = linearize(module.func(cand.func));
            stats.timers.linearization += t0.elapsed();
            let t0 = Instant::now();
            let alignment = align_with(
                module,
                f1,
                cand.func,
                &seq1,
                &seq2,
                &opts.merge.scoring,
                opts.merge.algorithm,
            );
            stats.timers.alignment += t0.elapsed();
            let rec = DecisionRecord { align_score: Some(alignment.score), ..rec };
            let t0 = Instant::now();
            let merged =
                merge_pair_aligned(module, f1, cand.func, seq1, seq2, alignment, &opts.merge);
            let outcome = match merged {
                Ok(info) => {
                    let report = evaluate(module, &cm, &info);
                    Some((info, report))
                }
                Err(_) => None,
            };
            stats.timers.codegen += t0.elapsed();
            match outcome {
                Some((info, report)) if report.is_profitable() => {
                    let delta = Some(report.delta);
                    if opts.oracle {
                        // Keep only the best profitable candidate.
                        let better =
                            best.as_ref().map(|(_, _, b)| report.delta > b.delta).unwrap_or(true);
                        if better {
                            if let Some((_, old, _)) = best.take() {
                                module.remove_function(old.merged);
                                // The previous winner's body was just
                                // discarded: by final disposition it was
                                // not merged (its positive Δ survives in
                                // the record).
                                if let Some(i) = best_rec {
                                    attempt_recs[i].outcome = DecisionOutcome::Unprofitable;
                                }
                            }
                            best = Some((pos + 1, info, report));
                            best_rec = Some(attempt_recs.len());
                            attempt_recs.push(DecisionRecord {
                                delta,
                                outcome: DecisionOutcome::Merged,
                                ..rec
                            });
                        } else {
                            module.remove_function(info.merged);
                            attempt_recs.push(DecisionRecord {
                                delta,
                                outcome: DecisionOutcome::Unprofitable,
                                ..rec
                            });
                        }
                    } else {
                        best = Some((pos + 1, info, report));
                        best_rec = Some(attempt_recs.len());
                        attempt_recs.push(DecisionRecord {
                            delta,
                            outcome: DecisionOutcome::Merged,
                            ..rec
                        });
                        break; // greedy: first profitable candidate wins
                    }
                }
                Some((info, report)) => {
                    module.remove_function(info.merged);
                    attempt_recs.push(DecisionRecord {
                        delta: Some(report.delta),
                        outcome: DecisionOutcome::Unprofitable,
                        ..rec
                    });
                }
                None => attempt_recs.push(rec),
            }
        }

        let Some((pos, info, _)) = best else {
            for r in attempt_recs {
                stats.decisions.push(r);
            }
            continue;
        };
        // Commit: thunks / call-graph update (§III-A).
        let t0 = Instant::now();
        let commit = match commit_merge(module, &info) {
            Ok(c) => c,
            Err(_) => {
                // Should not happen (guarded by tests); drop the merge.
                module.remove_function(info.merged);
                if let Some(i) = best_rec {
                    attempt_recs[i].outcome = DecisionOutcome::Failed;
                }
                for r in attempt_recs {
                    stats.decisions.push(r);
                }
                continue;
            }
        };
        stats.timers.update_calls += t0.elapsed();
        stats.merges += 1;
        stats.rank_positions.push(pos);
        for d in [commit.first, commit.second] {
            match d {
                crate::thunks::Disposition::Deleted => stats.deleted += 1,
                crate::thunks::Disposition::Thunk => stats.thunks += 1,
            }
        }
        for r in attempt_recs {
            stats.decisions.push(r);
        }
        // Maintain the pool and index: originals leave, the merged function
        // joins the working list (feedback loop), rewritten callers get
        // fresh fingerprints and index entries.
        live.remove(&f1);
        live.remove(&info.f2);
        fingerprints.remove(&f1);
        fingerprints.remove(&info.f2);
        index.remove(f1);
        index.remove(info.f2);
        let t0 = Instant::now();
        for g in commit.touched {
            if live.contains(&g) && module.is_live(g) {
                let fp = Fingerprint::of(module, g);
                index.insert(g, &fp); // refresh: insert replaces the entry
                fingerprints.insert(g, fp);
            }
        }
        let merged_fp = Fingerprint::of(module, info.merged);
        index.insert(info.merged, &merged_fp);
        fingerprints.insert(info.merged, merged_fp);
        stats.timers.fingerprinting += t0.elapsed();
        live.insert(info.merged);
        worklist.push_back(info.merged);
    }

    stats.size_after = cm.module_size(module);
    stats
}

pub(crate) fn eligible(module: &Module, f: FuncId, opts: &FmsaOptions) -> bool {
    let func = module.func(f);
    !func.is_declaration() && !opts.exclude.contains(&func.name)
}

/// The state both drivers start from: fingerprints, the seeded search
/// index, and the initial worklist/live set.
pub(crate) struct SeededPass {
    pub fingerprints: HashMap<FuncId, Fingerprint>,
    pub index: Box<dyn crate::search::CandidateSearch>,
    pub worklist: VecDeque<FuncId>,
    pub live: HashSet<FuncId>,
}

/// Shared setup of the sequential and pipeline drivers. Keeping this in
/// one place is part of the pipeline's bit-identity guarantee: both
/// drivers must start from exactly the same seeded state.
///
/// With a `pool`, fingerprinting and index seeding run on the workers —
/// `Fingerprint::of` and `MinHasher::signature` are pure functions of the
/// (quiescent) module, and the sharded batch insert preserves serial
/// bucket order, so the seeded state is bit-identical either way. At the
/// million-function scale these two loops are the entire startup cost.
pub(crate) fn seed_pass(
    module: &mut Module,
    opts: &FmsaOptions,
    timers: &mut StepTimers,
    pool: Option<&rayon::ThreadPool>,
) -> SeededPass {
    // Optional future-work extension: canonical intra-block instruction
    // order, so reordered clones linearize identically.
    if opts.canonicalize {
        let t0 = Instant::now();
        for f in module.func_ids() {
            if eligible(module, f, opts) {
                fmsa_ir::passes::canonicalize_block_order(module.func_mut(f));
            }
        }
        timers.linearization += t0.elapsed();
    }
    // Fingerprint every eligible function (cached; §IV) and seed the
    // candidate-search index. The index is maintained incrementally through
    // the feedback loop — no per-iteration pool is ever rebuilt.
    let t0 = Instant::now();
    let available: Vec<FuncId> =
        module.func_ids().into_iter().filter(|&f| eligible(module, f, opts)).collect();
    let fingerprints: HashMap<FuncId, Fingerprint> = match pool {
        Some(pool) if pool.current_num_threads() > 1 && available.len() > 1 => {
            let module = &*module;
            pool.par_map(&available, |_, &f| (f, Fingerprint::of(module, f))).into_iter().collect()
        }
        _ => available.iter().map(|&f| (f, Fingerprint::of(module, f))).collect(),
    };
    timers.fingerprinting += t0.elapsed();
    let t0 = Instant::now();
    // The oracle's "best possible candidate" claim requires an exhaustive
    // scan: shortlisting would silently turn its upper bound into a guess,
    // so oracle mode always searches exactly regardless of `opts.search`.
    // `Auto` resolves here, against the eligible-function count, so both
    // drivers (sequential and pipeline) pick the same implementation.
    let strategy =
        if opts.oracle { SearchStrategy::Exact } else { opts.search.resolve(available.len()) };
    let mut index = strategy.build();
    let items: Vec<(FuncId, &Fingerprint)> =
        available.iter().map(|&f| (f, &fingerprints[&f])).collect();
    index.insert_batch(&items, pool);
    timers.ranking += t0.elapsed();
    let worklist: VecDeque<FuncId> = available.iter().copied().collect();
    let live: HashSet<FuncId> = available.into_iter().collect();
    SeededPass { fingerprints, index, worklist, live }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            // One differing constant per clone.
            v = b.xor(v, b.const_i32(k as i32 + 100));
            b.ret(Some(v));
            out.push(f);
        }
        out
    }

    #[test]
    fn merges_a_clone_family_and_shrinks_module() {
        let mut m = Module::new("m");
        clone_family(&mut m, 4, 12);
        let stats = run_fmsa(&mut m, &FmsaOptions::default());
        assert!(stats.merges >= 2, "{stats:?}");
        assert!(stats.size_after < stats.size_before, "{stats:?}");
        assert!(fmsa_ir::verify_module(&m).is_empty(), "{:?}", fmsa_ir::verify_module(&m));
    }

    #[test]
    fn feedback_loop_merges_merged_functions() {
        // 4 clones: pairwise merges produce 2 merged functions that are
        // themselves similar and merge again -> 3 total merges.
        let mut m = Module::new("m");
        clone_family(&mut m, 4, 12);
        let stats = run_fmsa(&mut m, &FmsaOptions::with_threshold(10));
        assert_eq!(stats.merges, 3, "{stats:?}");
    }

    #[test]
    fn exclusion_prevents_merging() {
        let mut m = Module::new("m");
        clone_family(&mut m, 2, 12);
        let mut opts = FmsaOptions::default();
        opts.exclude.insert("fam0".to_owned());
        let stats = run_fmsa(&mut m, &opts);
        assert_eq!(stats.merges, 0);
        assert_eq!(stats.size_before, stats.size_after);
    }

    #[test]
    fn oracle_finds_at_least_as_much_as_greedy() {
        let mut m1 = Module::new("m1");
        clone_family(&mut m1, 5, 10);
        let greedy = run_fmsa(&mut m1, &FmsaOptions::default());
        let mut m2 = Module::new("m2");
        clone_family(&mut m2, 5, 10);
        let oracle = run_fmsa(&mut m2, &FmsaOptions::oracle());
        assert!(oracle.size_after <= greedy.size_after, "greedy={greedy:?} oracle={oracle:?}");
    }

    #[test]
    fn rank_positions_recorded() {
        let mut m = Module::new("m");
        clone_family(&mut m, 4, 12);
        let stats = run_fmsa(&mut m, &FmsaOptions::with_threshold(5));
        assert_eq!(stats.rank_positions.len(), stats.merges);
        assert!(stats.rank_positions.iter().all(|&p| (1..=5).contains(&p)));
    }

    #[test]
    fn lsh_search_merges_clone_families_too() {
        let mut m = Module::new("m");
        clone_family(&mut m, 4, 12);
        let stats = run_fmsa(&mut m, &FmsaOptions::with_lsh(10));
        assert!(stats.merges >= 2, "{stats:?}");
        assert!(stats.size_after < stats.size_before, "{stats:?}");
        assert!(fmsa_ir::verify_module(&m).is_empty());
    }

    #[test]
    fn lsh_feedback_loop_reaches_merged_functions() {
        // The incremental index must contain functions created mid-pass:
        // 4 clones merge pairwise, and the two merged functions must find
        // each other through the index for the third merge.
        let mut m = Module::new("m");
        clone_family(&mut m, 4, 12);
        let stats = run_fmsa(&mut m, &FmsaOptions::with_lsh(10));
        assert_eq!(stats.merges, 3, "{stats:?}");
    }

    #[test]
    fn exact_and_lsh_agree_on_small_families() {
        let mut m1 = Module::new("m1");
        clone_family(&mut m1, 6, 10);
        let exact = run_fmsa(&mut m1, &FmsaOptions::with_threshold(5));
        let mut m2 = Module::new("m2");
        clone_family(&mut m2, 6, 10);
        let lsh = run_fmsa(&mut m2, &FmsaOptions::with_lsh(5));
        assert_eq!(exact.merges, lsh.merges, "exact={exact:?} lsh={lsh:?}");
        assert_eq!(exact.size_after, lsh.size_after);
    }

    #[test]
    fn oracle_overrides_lsh_shortlisting() {
        // oracle + Lsh must behave exactly like oracle + Exact: the upper
        // bound is only meaningful over an exhaustive scan.
        let mut m1 = Module::new("m1");
        clone_family(&mut m1, 5, 10);
        let exact = run_fmsa(&mut m1, &FmsaOptions::oracle());
        let mut m2 = Module::new("m2");
        clone_family(&mut m2, 5, 10);
        let opts = FmsaOptions { search: crate::SearchStrategy::lsh(), ..FmsaOptions::oracle() };
        let lsh = run_fmsa(&mut m2, &opts);
        assert_eq!(exact.merges, lsh.merges);
        assert_eq!(exact.size_after, lsh.size_after);
        assert_eq!(exact.rank_positions, lsh.rank_positions);
    }

    #[test]
    fn timers_accumulate() {
        let mut m = Module::new("m");
        clone_family(&mut m, 4, 20);
        let stats = run_fmsa(&mut m, &FmsaOptions::default());
        assert!(stats.timers.total() > Duration::ZERO);
        assert!(stats.timers.alignment > Duration::ZERO);
    }
}
