//! The alignment budget: keeping one pathological pair from stalling the
//! merge pipeline.
//!
//! The full Needleman-Wunsch program is quadratic in time *and* space
//! (one direction byte per cell, plus scores linear in the lengths), so
//! one pair of multi-thousand-entry functions can dominate a whole pass
//! (and, in the parallel pipeline, pin a worker while its whole
//! generation waits on the commit barrier). [`plan`] bounds the per-pair
//! cost up front, from the sequence lengths alone:
//!
//! * pairs whose DP matrix fits in [`FULL_MATRIX_CELLS`] are aligned
//!   exactly with [`crate::needleman_wunsch`];
//! * larger pairs are aligned by the same kernel over a band of
//!   half-width [`BAND`] (`O((n+m)·BAND)` time and space, possibly
//!   suboptimal — see [`crate::banded_needleman_wunsch`] for why
//!   suboptimality is conservative for merge profitability);
//! * pairs where either side exceeds [`MAX_LEN`] are skipped outright
//!   ([`AlignPlan::Skip`]) and the candidate is treated as unprofitable.
//!
//! The budget is a fixed policy, not an option: which pairs fall back
//! decides the output, so moving a constant is an output change. None of
//! them triggers at paper scale (the suite tops out well below 5 000
//! linearized entries), which keeps the pipeline bit-identical to the
//! paper's unbudgeted loop.

use crate::{banded_needleman_wunsch, needleman_wunsch, Alignment, ScoringScheme};

/// Maximum `(n+1)·(m+1)` DP cells for a full-matrix alignment. Each cell
/// costs one direction byte, so the cap also bounds a pair's quadratic
/// memory to 25 MB. It was sized when a cell cost 9 bytes (an `i64`
/// score and a direction) and stays where it is because moving it would
/// move fallbacks, and with them the output.
pub const FULL_MATRIX_CELLS: usize = 25_000_000;

/// Half-width of the band that aligns pairs over [`FULL_MATRIX_CELLS`].
pub const BAND: usize = 64;

/// Hard cap: a pair with either sequence longer than this is skipped.
pub const MAX_LEN: usize = 200_000;

/// The algorithm [`plan`] selected for one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignPlan {
    /// Full-matrix Needleman-Wunsch.
    Full,
    /// Banded NW with the given half-width.
    Banded(usize),
    /// Do not align this pair.
    Skip,
}

/// Decides how to align a pair of sequences of lengths `n` and `m`.
pub fn plan(n: usize, m: usize) -> AlignPlan {
    if n > MAX_LEN || m > MAX_LEN {
        return AlignPlan::Skip;
    }
    if (n + 1).saturating_mul(m + 1) <= FULL_MATRIX_CELLS {
        AlignPlan::Full
    } else {
        AlignPlan::Banded(BAND)
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
    fn cell_cap_is_the_full_matrix_boundary() {
        // 5 000 · 5 000 = 25 000 000 cells: exactly at the cap.
        assert_eq!(plan(4_999, 4_999), AlignPlan::Full);
        assert_eq!(plan(5_000, 5_000), AlignPlan::Banded(64));
        for (n, m) in [(0, 0), (10, 2_000), (4_000, 4_000)] {
            assert_eq!(plan(n, m), AlignPlan::Full, "({n}, {m})");
        }
    }

    #[test]
    fn length_cap_wins_over_fallback() {
        assert_eq!(plan(200_001, 1), AlignPlan::Skip);
        assert_eq!(plan(1, 200_001), AlignPlan::Skip);
        assert_eq!(plan(200_000, 1), AlignPlan::Full);
        assert_eq!(plan(200_000, 200_000), AlignPlan::Banded(64));
    }

    #[test]
    fn cell_product_does_not_overflow() {
        assert_eq!(plan(usize::MAX, usize::MAX), AlignPlan::Skip);
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
