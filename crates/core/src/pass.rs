//! What one run of the FMSA pass reports: [`FmsaStats`]. The driver
//! itself, the paper's §IV worklist (Fig. 7) as a schedule/prepare/commit
//! pipeline, is [`crate::pipeline`], configured by [`crate::Config`];
//! [`crate::optimize`] is its entry point. The per-step times of the
//! paper's compile-time breakdown (Fig. 13) are the stage clocks of
//! [`crate::pipeline::PipelineStats`].

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
    /// Module size before the pass, in cost-model bytes.
    pub size_before: u64,
    /// Module size after the pass.
    pub size_after: u64,
    /// Originals deleted outright.
    pub deleted: usize,
    /// Originals kept as thunks.
    pub thunks: usize,
    /// The pipeline's stage timers and counters. Always `Some`. The
    /// `Option` is kept because `perfbench/` compiles against it; ROADMAP
    /// 1(c) deletes it.
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
