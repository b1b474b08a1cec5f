//! Candidate search: how the merge pipeline finds merge partners.
//!
//! The paper ranks every live function against every other (§IV), which is
//! quadratic in the number of functions and — per its own Fig. 13
//! breakdown — the second-largest cost of the pass. This module makes the
//! search strategy pluggable behind [`CandidateSearch`]:
//!
//! * [`ExactSearch`] — the paper's full pairwise ranking. O(n) per query,
//!   O(n²) per pass; exact, and therefore the precision baseline and the
//!   oracle's substrate.
//! * [`LshSearch`] — MinHash signatures over each function's opcode/type
//!   feature multiset ([`minhash`]), banded into a bucket index ([`lsh`]).
//!   A query inspects only the subject's own buckets, returning a small
//!   shortlist in ~O(1); the full similarity estimate is then computed
//!   only for shortlisted functions.
//!
//! Both implementations are *incremental*: the merge feedback loop removes
//! merged originals, inserts the merged function, and re-inserts
//! re-fingerprinted callers, so no per-iteration pool is ever rebuilt.
//! The index keeps the fingerprint of every function it holds, so it is
//! the merge pass's only record of which functions are still live and
//! what they look like.
//!
//! # MinHash banding parameters and the precision/recall trade-off
//!
//! [`LshSearch`] splits a signature of [`lsh::HASHES`] MinHash values
//! into [`lsh::BANDS`] bands of `rows = HASHES / BANDS` values. Two
//! functions whose signatures agree on a fraction `s` of positions
//! collide in at least one band with probability
//! `1 − (1 − s^rows)^bands` — an S-curve in `s`:
//!
//! * **More rows per band** (fewer bands) sharpens the curve and pushes it
//!   right: fewer false positives (smaller shortlists, faster pass) but
//!   lower recall for moderately-similar pairs.
//! * **More bands** (fewer rows) moves the curve left: near-duplicates are
//!   virtually never missed, at the cost of more shortlist noise to score.
//!
//! The constants (128 hashes, 8 bands × 16 rows) were calibrated on
//! measured clone-swarm agreement distributions: family pairs sit at agreement
//! ≥ 0.87 and collide with ≈ 0.98 average probability, while unrelated
//! functions from the same generator (agreement ≈ 0.6) collide only ≈ 3.6%
//! of the time. Recall loss is concentrated on moderately-similar pairs the
//! profitability model would likely reject anyway — that is the quality
//! trade documented by the `lsh_tracks_exact_search` property test and the
//! `candidate_search` bench.
//!
//! The occurrence cap (64) bounds how many occurrences of one opcode/type
//! feed the signature. It must stay high enough that instruction *counts*
//! remain visible (capping at 8 made every mid-sized function look alike
//! and inflated buckets until LSH lost to the exact scan), while still
//! preventing one unrolled loop from crowding out the rest of a function's
//! profile.

pub mod lsh;
pub mod minhash;

pub use lsh::LshSearch;
pub use minhash::MinHasher;

use crate::fingerprint::Fingerprint;
use crate::ranking::{rank_candidates, Candidate};
use fmsa_ir::FuncId;
use std::collections::BTreeMap;

/// A maintained index over the live merge-eligible functions and their
/// fingerprints, queried for the top merge candidates of one subject
/// function.
///
/// `Send + Sync` is part of the contract: the pipeline's schedule stage
/// runs candidate queries for a whole generation concurrently against a
/// shared `&dyn CandidateSearch`, so `candidates` must be safe under
/// concurrent shared-reference calls (it takes `&self`, so this is the
/// usual no-interior-mutability requirement, not a locking one).
pub trait CandidateSearch: Send + Sync {
    /// Adds (or refreshes) `func` with fingerprint `fp`, which the index
    /// keeps.
    ///
    /// Implementations must tolerate re-insertion of an already-indexed
    /// function (callers refresh fingerprints after call-site rewrites).
    fn insert(&mut self, func: FuncId, fp: Fingerprint);

    /// Bulk-adds `items`, using `pool` where the index build can run in
    /// parallel. Must be observably identical to inserting the items one
    /// by one in order; the default does exactly that. [`LshSearch`]
    /// overrides it with sharded parallel seeding.
    fn insert_batch(&mut self, items: Vec<(FuncId, Fingerprint)>, pool: &rayon::ThreadPool) {
        let _ = pool;
        for (func, fp) in items {
            self.insert(func, fp);
        }
    }

    /// Removes `func` from the index; no-op when absent.
    fn remove(&mut self, func: FuncId);

    /// Whether `func` is indexed.
    fn contains(&self, func: FuncId) -> bool;

    /// Top `threshold` candidates for `subject`, most similar first,
    /// scored with the exact fingerprint similarity over the fingerprints
    /// the index holds. `subject` itself is never returned; a subject
    /// without a fingerprint in the index has no candidates.
    fn candidates(&self, subject: FuncId, threshold: usize, min_similarity: f64) -> Vec<Candidate>;

    /// Number of indexed functions.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The paper's exhaustive pairwise search: every query ranks every other
/// live function. Exact by construction; quadratic over a whole pass.
#[derive(Debug, Clone, Default)]
pub struct ExactSearch {
    /// Ordered so iteration (and therefore tie-breaking input order) is
    /// deterministic.
    fingerprints: BTreeMap<FuncId, Fingerprint>,
}

impl ExactSearch {
    /// Empty index.
    pub fn new() -> ExactSearch {
        ExactSearch::default()
    }
}

impl CandidateSearch for ExactSearch {
    fn insert(&mut self, func: FuncId, fp: Fingerprint) {
        self.fingerprints.insert(func, fp);
    }

    fn remove(&mut self, func: FuncId) {
        self.fingerprints.remove(&func);
    }

    fn contains(&self, func: FuncId) -> bool {
        self.fingerprints.contains_key(&func)
    }

    fn candidates(&self, subject: FuncId, threshold: usize, min_similarity: f64) -> Vec<Candidate> {
        let Some(subject_fp) = self.fingerprints.get(&subject) else {
            return Vec::new();
        };
        rank_candidates(
            subject,
            subject_fp,
            self.fingerprints.iter().map(|(&f, fp)| (f, fp)),
            threshold,
            min_similarity,
        )
    }

    fn len(&self) -> usize {
        self.fingerprints.len()
    }
}

/// Module size (eligible functions) at which [`SearchStrategy::Auto`]
/// switches from the exact pairwise scan to LSH shortlisting.
///
/// Calibrated from the `candidate_search` bench crossover: at 100
/// functions the exact scan still wins (the MinHash index build
/// dominates), by 1 000 functions LSH is ~5.6× faster end-to-end, with
/// the break-even shortly past 100. The default sits just above the
/// measured break-even so small suite modules keep the precision
/// baseline.
pub const AUTO_SEARCH_CROSSOVER: usize = 150;

/// Which candidate-search implementation the merge pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SearchStrategy {
    /// Full pairwise ranking (the paper's algorithm; precision baseline).
    Exact,
    /// Banded MinHash LSH shortlisting.
    Lsh,
    /// Selected per pass by module size: [`SearchStrategy::Exact`] below
    /// [`AUTO_SEARCH_CROSSOVER`] eligible functions,
    /// [`SearchStrategy::Lsh`] at or above it. The pipeline resolves this
    /// once, before seeding the index, so every thread count resolves
    /// identically (part of the bit-identity guarantee). Overridable via
    /// `fmsa_opt --search`.
    #[default]
    Auto,
}

impl SearchStrategy {
    /// The same as [`SearchStrategy::Lsh`]. Kept because `perfbench/`
    /// compiles against it; ROADMAP 1(c) deletes it.
    pub fn lsh() -> SearchStrategy {
        SearchStrategy::Lsh
    }

    /// Resolves [`SearchStrategy::Auto`] against the number of eligible
    /// functions in the module; concrete strategies pass through.
    pub fn resolve(self, eligible_functions: usize) -> SearchStrategy {
        match self {
            SearchStrategy::Auto => {
                if eligible_functions >= AUTO_SEARCH_CROSSOVER {
                    SearchStrategy::Lsh
                } else {
                    SearchStrategy::Exact
                }
            }
            concrete => concrete,
        }
    }

    /// Instantiates the index for this strategy. Callers resolve
    /// [`SearchStrategy::Auto`] first (see [`SearchStrategy::resolve`]);
    /// an unresolved `Auto` conservatively builds the exact baseline.
    pub fn build(&self) -> Box<dyn CandidateSearch> {
        match self {
            SearchStrategy::Exact | SearchStrategy::Auto => Box::new(ExactSearch::new()),
            SearchStrategy::Lsh => Box::new(LshSearch::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmsa_ir::{FuncBuilder, Module, Value};

    fn fn_with_adds(m: &mut Module, name: &str, adds: usize) -> FuncId {
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let f = m.create_function(name, fn_ty);
        let mut b = FuncBuilder::new(m, f);
        let entry = b.block("entry");
        b.switch_to(entry);
        let mut v = Value::Param(0);
        for _ in 0..adds {
            v = b.add(v, b.const_i32(1));
        }
        b.ret(Some(v));
        f
    }

    #[test]
    fn exact_search_matches_direct_ranking() {
        let mut m = Module::new("m");
        let subject = fn_with_adds(&mut m, "s", 10);
        let ids: Vec<FuncId> =
            (0..8).map(|k| fn_with_adds(&mut m, &format!("f{k}"), 2 + k)).collect();
        let pool: Vec<(FuncId, Fingerprint)> =
            ids.iter().chain([subject].iter()).map(|&f| (f, Fingerprint::of(&m, f))).collect();
        let mut idx = ExactSearch::new();
        for (f, fp) in &pool {
            idx.insert(*f, fp.clone());
        }
        let via_index = idx.candidates(subject, 3, 0.0);
        let subject_fp = Fingerprint::of(&m, subject);
        let direct =
            rank_candidates(subject, &subject_fp, pool.iter().map(|(f, fp)| (*f, fp)), 3, 0.0);
        assert_eq!(via_index, direct);
        assert_eq!(idx.len(), 9);
        assert!(idx.contains(subject));
        idx.remove(subject);
        assert!(!idx.contains(subject));
        assert!(idx.candidates(subject, 3, 0.0).is_empty(), "an unindexed subject has none");
    }

    #[test]
    fn auto_resolves_by_module_size() {
        assert_eq!(SearchStrategy::Auto.resolve(AUTO_SEARCH_CROSSOVER - 1), SearchStrategy::Exact);
        assert_eq!(SearchStrategy::Auto.resolve(AUTO_SEARCH_CROSSOVER), SearchStrategy::Lsh);
        // Concrete strategies never flip, whatever the module size.
        assert_eq!(SearchStrategy::Exact.resolve(1_000_000), SearchStrategy::Exact);
        assert_eq!(SearchStrategy::Lsh.resolve(0), SearchStrategy::Lsh);
    }

    #[test]
    fn strategy_builds_matching_impl() {
        assert_eq!(SearchStrategy::default(), SearchStrategy::Auto);
        let mut m = Module::new("m");
        let a = fn_with_adds(&mut m, "a", 5);
        let fp = Fingerprint::of(&m, a);
        for strategy in [SearchStrategy::Exact, SearchStrategy::Lsh] {
            let mut idx = strategy.build();
            assert!(idx.is_empty());
            idx.insert(a, fp.clone());
            assert_eq!(idx.len(), 1);
            idx.remove(a);
            assert!(idx.is_empty());
        }
    }
}
