//! Alignment budgets: keeping one pathological pair from stalling the
//! merge pipeline.
//!
//! The full Needleman-Wunsch program is quadratic in time *and* space
//! (one direction byte per cell, plus scores linear in the lengths), so
//! one pair of multi-thousand-entry functions can dominate a whole pass
//! (and, in the parallel pipeline, pin a worker while its whole
//! generation waits on the commit barrier). An [`AlignmentBudget`] bounds
//! the per-pair cost up front, from the sequence lengths alone:
//!
//! * pairs whose DP matrix fits in [`AlignmentBudget::full_matrix_cells`]
//!   are aligned exactly with [`crate::needleman_wunsch`];
//! * larger pairs use banded NW of half-width [`AlignmentBudget::band`]
//!   (linear-ish time and space, possibly suboptimal — see
//!   [`crate::banded_needleman_wunsch`] for why suboptimality is
//!   conservative for merge profitability);
//! * pairs where either side exceeds [`AlignmentBudget::max_len`] are
//!   skipped outright ([`AlignPlan::Skip`]) and the candidate is treated
//!   as unprofitable.

use crate::{banded_needleman_wunsch, needleman_wunsch, Alignment, ScoringScheme};

/// Per-pair cost bounds for one alignment, decided from lengths alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlignmentBudget {
    /// Maximum `(n+1)·(m+1)` DP cells for a full-matrix alignment. Each
    /// cell costs one direction byte ([`crate::needleman_wunsch`] keeps
    /// scores in three diagonal buffers), so the cap is also the pair's
    /// quadratic memory in bytes.
    pub full_matrix_cells: usize,
    /// Half-width of the banded NW that aligns pairs over the cell
    /// budget: bounded time and space, score may be below the
    /// full-matrix optimum.
    pub band: usize,
    /// Hard cap: if either sequence is longer than this, the pair is
    /// skipped.
    pub max_len: usize,
}

impl Default for AlignmentBudget {
    /// The default budget never triggers on paper-scale functions (the
    /// suite tops out well below 5 000 linearized entries), so pipeline
    /// output stays bit-identical to the paper's unbudgeted loop;
    /// adversarial inputs beyond that fall back to a 64-wide band. The
    /// 25 M-cell cap was sized when a cell cost 9 bytes (an `i64` score
    /// and a direction); it now bounds 25 MB of directions per pair, and
    /// stays where it is because moving it would move fallbacks, and
    /// with them the output.
    fn default() -> Self {
        AlignmentBudget { full_matrix_cells: 25_000_000, band: 64, max_len: 200_000 }
    }
}

/// The algorithm an [`AlignmentBudget`] selected for one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignPlan {
    /// Full-matrix Needleman-Wunsch.
    Full,
    /// Banded NW with the given half-width.
    Banded(usize),
    /// Do not align this pair.
    Skip,
}

impl AlignmentBudget {
    /// Decides how to align a pair of sequences of lengths `n` and `m`.
    pub fn plan(&self, n: usize, m: usize) -> AlignPlan {
        if n > self.max_len || m > self.max_len {
            return AlignPlan::Skip;
        }
        let cells = (n + 1).saturating_mul(m + 1);
        if cells <= self.full_matrix_cells {
            AlignPlan::Full
        } else {
            AlignPlan::Banded(self.band)
        }
    }
}

/// Aligns `a` and `b` according to `plan`. Returns `None` for
/// [`AlignPlan::Skip`].
pub fn align_with_plan<T: Clone>(
    a: &[T],
    b: &[T],
    eq: impl Fn(&T, &T) -> bool,
    scheme: &ScoringScheme,
    plan: AlignPlan,
) -> Option<Alignment> {
    match plan {
        AlignPlan::Full => Some(needleman_wunsch(a, b, eq, scheme)),
        AlignPlan::Banded(w) => Some(banded_needleman_wunsch(a, b, eq, scheme, w)),
        AlignPlan::Skip => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_never_triggers_at_paper_scale() {
        let budget = AlignmentBudget::default();
        for (n, m) in [(0, 0), (10, 2000), (4000, 4000), (4999, 4999)] {
            assert_eq!(budget.plan(n, m), AlignPlan::Full, "({n}, {m})");
        }
    }

    #[test]
    fn cell_cap_selects_fallback() {
        let budget = AlignmentBudget { full_matrix_cells: 10_000, band: 16, max_len: 1_000_000 };
        assert_eq!(budget.plan(99, 99), AlignPlan::Full);
        assert_eq!(budget.plan(200, 200), AlignPlan::Banded(16));
    }

    #[test]
    fn length_cap_wins_over_fallback() {
        let budget = AlignmentBudget { full_matrix_cells: usize::MAX, band: 64, max_len: 500 };
        assert_eq!(budget.plan(501, 10), AlignPlan::Skip);
        assert_eq!(budget.plan(10, 501), AlignPlan::Skip);
        assert_eq!(budget.plan(500, 500), AlignPlan::Full);
    }

    #[test]
    fn cell_product_does_not_overflow() {
        let budget =
            AlignmentBudget { full_matrix_cells: usize::MAX - 1, band: 8, max_len: usize::MAX };
        assert_eq!(budget.plan(usize::MAX - 1, usize::MAX - 1), AlignPlan::Banded(8));
    }

    #[test]
    fn align_with_plan_dispatches() {
        let a: Vec<u32> = (0..40).collect();
        let b: Vec<u32> = (1..41).collect();
        let scheme = ScoringScheme::default();
        let full = align_with_plan(&a, &b, |x, y| x == y, &scheme, AlignPlan::Full)
            .expect("full plan aligns");
        let banded = align_with_plan(&a, &b, |x, y| x == y, &scheme, AlignPlan::Banded(8))
            .expect("banded plan aligns");
        assert_eq!(full.score, banded.score, "shift of 1 is inside an 8-wide band");
        assert!(align_with_plan(&a, &b, |x, y| x == y, &scheme, AlignPlan::Skip).is_none());
    }
}
