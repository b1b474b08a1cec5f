//! What one run of the FMSA pass takes and reports: the deprecated
//! [`FmsaOptions`], the per-step timers of the paper's compile-time
//! breakdown (Fig. 13), and [`FmsaStats`]. The driver itself, the
//! paper's §IV worklist (Fig. 7) as a schedule/prepare/commit pipeline,
//! is [`crate::pipeline`]; [`crate::optimize`] is its entry point.

// This module *defines* the deprecated `FmsaOptions` surface; the
// replacement ([`crate::Config`]) converts into it.
#![allow(deprecated)]

use crate::merge::MergeConfig;
use crate::search::SearchStrategy;
use fmsa_target::TargetArch;
use std::collections::HashSet;
use std::time::Duration;

/// Options controlling one run of the FMSA pass.
#[deprecated(
    since = "0.7.0",
    note = "use `fmsa_core::Config` (and `fmsa_core::optimize`); `Config::fmsa_options()` \
            converts for `run_fmsa_pipeline`"
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
    /// Per-pair alignment cost bounds. The paper aligns every candidate
    /// pair in full; the default budget never triggers at paper scale,
    /// so on the evaluated workloads the pass aligns exactly as the
    /// paper does.
    pub budget: fmsa_align::AlignmentBudget,
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
    /// The pipeline's stage timers and counters. Always `Some`; the
    /// `Option` remains only for source compatibility.
    pub pipeline: Option<crate::pipeline::PipelineStats>,
    /// Pairs quarantined instead of merged (caught panics, verifier
    /// rejections), at every thread count.
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
