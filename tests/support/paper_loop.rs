//! The paper's FMSA driver (§IV, Fig. 7) as one plain worklist loop: the
//! reference the merge pipeline is compared against. Greedy mode commits
//! the first profitable candidate of each subject; oracle mode builds
//! every candidate and commits the one with the largest Δ; a build it
//! does not keep is discarded with its types (`merge::discard`). No
//! timers, spans, decision log, fault handling or caches — only the
//! public API.
//! It shares the candidate index type and the eligibility rule
//! (`pipeline::eligible`) with the pipeline, nothing else.

use fmsa::core::fingerprint::Fingerprint;
use fmsa::core::linearize;
use fmsa::core::merge::{align, discard, merge_pair_aligned, MergeInfo};
use fmsa::core::pipeline::eligible;
use fmsa::core::profitability::evaluate;
use fmsa::core::thunks::commit_merge;
use fmsa::core::SearchStrategy;
use fmsa::ir::{FuncId, Module};
use fmsa::target::CostModel;
use fmsa::Config;
use std::collections::VecDeque;

/// What the loop did: committed merges, attempts, and the 1-based rank
/// of each committed merge's partner.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PaperStats {
    pub merges: usize,
    pub attempted: usize,
    pub rank_positions: Vec<usize>,
}

/// Runs the paper's loop over `module` under `cfg` (its thread count and
/// fault plan are ignored; the alignment budget is never applied).
pub fn paper_loop(module: &mut Module, cfg: &Config) -> PaperStats {
    let cm = CostModel::new(cfg.arch);
    let mut stats = PaperStats::default();
    if cfg.canonicalize {
        for f in module.func_ids() {
            if eligible(module, f, cfg) {
                fmsa::ir::passes::canonicalize_block_order(module.func_mut(f));
            }
        }
    }
    let available: Vec<FuncId> =
        module.func_ids().into_iter().filter(|&f| eligible(module, f, cfg)).collect();
    // The oracle's upper bound needs an exhaustive scan.
    let strategy =
        if cfg.oracle { SearchStrategy::Exact } else { cfg.search.resolve(available.len()) };
    // The index holds the live functions and their fingerprints.
    let mut index = strategy.build();
    for &f in &available {
        index.insert(f, Fingerprint::of(module, f));
    }
    let mut worklist: VecDeque<FuncId> = available.into();
    let threshold = if cfg.oracle { usize::MAX } else { cfg.threshold };

    while let Some(f1) = worklist.pop_front() {
        if !index.contains(f1) || !module.is_live(f1) {
            continue;
        }
        let candidates = index.candidates(f1, threshold, cfg.min_similarity);
        let mut best: Option<(usize, MergeInfo, i64)> = None;
        for (pos, cand) in candidates.iter().enumerate() {
            stats.attempted += 1;
            let seq1 = linearize(module.func(f1));
            let seq2 = linearize(module.func(cand.func));
            let alignment = align(module, f1, cand.func, &seq1, &seq2);
            let Ok(info) =
                merge_pair_aligned(module, f1, cand.func, seq1, seq2, alignment, &cfg.merge)
            else {
                continue;
            };
            // Evaluated while the best body so far is still in the module.
            let delta = evaluate(module, &cm, &info).delta;
            if delta > 0 && best.as_ref().is_none_or(|b| delta > b.2) {
                if let Some((_, old, _)) = best.replace((pos + 1, info, delta)) {
                    // The new best may use types the old one interned.
                    module.remove_function(old.merged);
                }
                if !cfg.oracle {
                    break; // greedy: the first profitable candidate wins
                }
            } else {
                // A discarded build leaves no types behind.
                discard(module, &info);
            }
        }
        let Some((rank, info, _)) = best else { continue };
        let Ok(commit) = commit_merge(module, &info) else {
            // The failed commit may have rewritten callers with new cast
            // types, so the merge's types stay.
            module.remove_function(info.merged);
            continue;
        };
        stats.merges += 1;
        stats.rank_positions.push(rank);
        // The originals leave the pool; rewritten callers get fresh
        // fingerprints, and the merged function joins the worklist (the
        // feedback loop).
        index.remove(f1);
        index.remove(info.f2);
        for g in commit.touched {
            if index.contains(g) && module.is_live(g) {
                index.insert(g, Fingerprint::of(module, g));
            }
        }
        index.insert(info.merged, Fingerprint::of(module, info.merged));
        worklist.push_back(info.merged);
    }
    stats
}
