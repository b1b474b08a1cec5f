//! Property-based tests for the alignment algorithms.

use fmsa_align::{
    banded_needleman_wunsch, needleman_wunsch, AlignPlan, Alignment, AlignmentBudget,
    ScoringScheme, Step,
};
use proptest::prelude::*;

/// The row-major Needleman-Wunsch kernel the anti-diagonal one replaced,
/// kept verbatim as the oracle: a full `i64` score matrix and a direction
/// matrix, filled row by row, with the relation called again on the
/// traceback. The library kernel must reproduce it step for step.
fn reference_nw<T>(
    a: &[T],
    b: &[T],
    eq: impl Fn(&T, &T) -> bool,
    scheme: &ScoringScheme,
) -> Alignment {
    #[derive(Clone, Copy)]
    enum Dir {
        Diag,
        Up,
        Left,
    }
    let n = a.len();
    let m = b.len();
    let w = m + 1;
    let mut score = vec![0i64; (n + 1) * w];
    let mut dir = vec![Dir::Diag; (n + 1) * w];
    for j in 1..=m {
        score[j] = j as i64 * scheme.gap_score;
        dir[j] = Dir::Left;
    }
    for i in 1..=n {
        score[i * w] = i as i64 * scheme.gap_score;
        dir[i * w] = Dir::Up;
    }
    for i in 1..=n {
        for j in 1..=m {
            let matched = eq(&a[i - 1], &b[j - 1]);
            let sub = if matched { scheme.match_score } else { scheme.mismatch_score };
            let diag = score[(i - 1) * w + (j - 1)] + sub;
            let up = score[(i - 1) * w + j] + scheme.gap_score;
            let left = score[i * w + (j - 1)] + scheme.gap_score;
            let (best, d) = if diag >= up && diag >= left {
                (diag, Dir::Diag)
            } else if up >= left {
                (up, Dir::Up)
            } else {
                (left, Dir::Left)
            };
            score[i * w + j] = best;
            dir[i * w + j] = d;
        }
    }
    let mut steps = Vec::with_capacity(n.max(m));
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        match dir[i * w + j] {
            Dir::Diag if i > 0 && j > 0 => {
                let matched = eq(&a[i - 1], &b[j - 1]);
                steps.push(Step::Both { i: i - 1, j: j - 1, matched });
                i -= 1;
                j -= 1;
            }
            Dir::Up | Dir::Diag if i > 0 => {
                steps.push(Step::Left(i - 1));
                i -= 1;
            }
            _ => {
                steps.push(Step::Right(j - 1));
                j -= 1;
            }
        }
    }
    steps.reverse();
    Alignment { steps, score: score[n * w + m] }
}

/// Asserts the library kernel reproduces the reference kernel exactly.
fn assert_matches_reference(a: &[u8], b: &[u8], scheme: &ScoringScheme) {
    let got = needleman_wunsch(a, b, |x, y| x == y, scheme);
    let want = reference_nw(a, b, |x, y| x == y, scheme);
    assert_eq!(got.score, want.score, "score, {a:?} vs {b:?} under {scheme:?}");
    assert_eq!(got.steps, want.steps, "steps, {a:?} vs {b:?} under {scheme:?}");
}

/// Largest weight magnitude for which an `n × m` program still runs on
/// `i32` lanes: `(n + m + 1) · w ≤ i32::MAX`.
fn i32_weight_limit(n: usize, m: usize) -> i64 {
    i32::MAX as i64 / (n + m + 1) as i64
}

fn tie_heavy_seq() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..2, 0..40)
}

fn any_scheme() -> impl Strategy<Value = ScoringScheme> {
    (-4i64..7, -5i64..4, -5i64..3).prop_map(|(match_score, mismatch_score, gap_score)| {
        ScoringScheme { match_score, mismatch_score, gap_score }
    })
}

/// Brute-force optimal global alignment score by exhaustive recursion.
/// Only feasible for tiny sequences; used as the ground-truth oracle.
fn brute_force_score(a: &[u8], b: &[u8], scheme: &ScoringScheme) -> i64 {
    fn go(a: &[u8], b: &[u8], s: &ScoringScheme) -> i64 {
        match (a.split_first(), b.split_first()) {
            (None, None) => 0,
            (Some((_, ra)), None) => s.gap_score + go(ra, b, s),
            (None, Some((_, rb))) => s.gap_score + go(a, rb, s),
            (Some((x, ra)), Some((y, rb))) => {
                let sub = if x == y { s.match_score } else { s.mismatch_score };
                let diag = sub + go(ra, rb, s);
                let up = s.gap_score + go(ra, b, s);
                let left = s.gap_score + go(a, rb, s);
                diag.max(up).max(left)
            }
        }
    }
    go(a, b, scheme)
}

fn small_seq() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..4, 0..8)
}

fn medium_seq() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..6, 0..64)
}

proptest! {
    #[test]
    fn nw_alignment_is_structurally_valid(a in medium_seq(), b in medium_seq()) {
        let al = needleman_wunsch(&a, &b, |x, y| x == y, &ScoringScheme::default());
        prop_assert!(al.is_valid_for(a.len(), b.len()));
        prop_assert!(al.len() >= a.len().max(b.len()));
        prop_assert!(al.len() <= a.len() + b.len());
    }

    #[test]
    fn nw_reported_score_matches_rescore(a in medium_seq(), b in medium_seq()) {
        let scheme = ScoringScheme::default();
        let al = needleman_wunsch(&a, &b, |x, y| x == y, &scheme);
        prop_assert_eq!(al.score, al.rescore(&scheme));
    }

    #[test]
    fn nw_score_is_optimal(a in small_seq(), b in small_seq()) {
        let scheme = ScoringScheme::default();
        let al = needleman_wunsch(&a, &b, |x, y| x == y, &scheme);
        let oracle = brute_force_score(&a, &b, &scheme);
        prop_assert_eq!(al.score, oracle);
    }

    #[test]
    fn identical_inputs_align_all_matches(a in medium_seq()) {
        let al = needleman_wunsch(&a, &a, |x, y| x == y, &ScoringScheme::default());
        prop_assert_eq!(al.match_count(), a.len());
    }

    #[test]
    fn alignment_is_symmetric_in_score(a in medium_seq(), b in medium_seq()) {
        let scheme = ScoringScheme::default();
        let ab = needleman_wunsch(&a, &b, |x, y| x == y, &scheme);
        let ba = needleman_wunsch(&b, &a, |x, y| x == y, &scheme);
        prop_assert_eq!(ab.score, ba.score);
    }

    #[test]
    fn banded_is_valid_and_bounded_by_nw(
        a in medium_seq(),
        b in medium_seq(),
        band in 0usize..16,
    ) {
        let scheme = ScoringScheme::default();
        let banded = banded_needleman_wunsch(&a, &b, |x, y| x == y, &scheme, band);
        prop_assert!(banded.is_valid_for(a.len(), b.len()));
        prop_assert_eq!(banded.score, banded.rescore(&scheme));
        let full = needleman_wunsch(&a, &b, |x, y| x == y, &scheme);
        prop_assert!(banded.score <= full.score, "band restricts the path set");
    }

    #[test]
    fn banded_with_covering_band_equals_nw(a in medium_seq(), b in medium_seq()) {
        // A band covering the whole matrix must reproduce NW exactly,
        // including tie-breaking.
        let scheme = ScoringScheme::default();
        let banded =
            banded_needleman_wunsch(&a, &b, |x, y| x == y, &scheme, a.len() + b.len());
        let full = needleman_wunsch(&a, &b, |x, y| x == y, &scheme);
        prop_assert_eq!(banded.steps, full.steps);
        prop_assert_eq!(banded.score, full.score);
    }

    #[test]
    fn budget_plan_is_total_and_consistent(n in 0usize..10_000, m in 0usize..10_000) {
        // Every length pair gets exactly one plan, and shrinking a budget
        // never upgrades a pair from fallback to full.
        let tight = AlignmentBudget { full_matrix_cells: 100_000, band: 8, max_len: 5_000 };
        let loose = AlignmentBudget { full_matrix_cells: 10_000_000, ..tight };
        let pt = tight.plan(n, m);
        let pl = loose.plan(n, m);
        if pt == AlignPlan::Full {
            prop_assert_eq!(pl, AlignPlan::Full);
        }
        if n > tight.max_len || m > tight.max_len {
            prop_assert_eq!(pt, AlignPlan::Skip);
            prop_assert_eq!(pl, AlignPlan::Skip);
        }
    }
}

proptest! {
    #[test]
    fn kernel_matches_reference_on_tie_heavy_inputs(a in tie_heavy_seq(), b in tie_heavy_seq()) {
        assert_matches_reference(&a, &b, &ScoringScheme::default());
        let unit = ScoringScheme { match_score: 1, mismatch_score: -1, gap_score: -1 };
        assert_matches_reference(&a, &b, &unit);
    }

    #[test]
    fn kernel_matches_reference_on_medium_inputs(a in medium_seq(), b in medium_seq()) {
        assert_matches_reference(&a, &b, &ScoringScheme::default());
    }

    #[test]
    fn kernel_matches_reference_on_lopsided_inputs(
        long in prop::collection::vec(0u8..3, 60..240),
        short in prop::collection::vec(0u8..3, 0..5),
    ) {
        let scheme = ScoringScheme::default();
        assert_matches_reference(&long, &short, &scheme);
        assert_matches_reference(&short, &long, &scheme);
    }

    #[test]
    fn kernel_matches_reference_under_any_scheme(
        a in medium_seq(),
        b in medium_seq(),
        scheme in any_scheme(),
    ) {
        assert_matches_reference(&a, &b, &scheme);
    }

    #[test]
    fn kernel_matches_reference_at_the_lane_switch(
        a in prop::collection::vec(0u8..3, 0..24),
        b in prop::collection::vec(0u8..3, 0..24),
        over in 0i64..2,
        signs in 0u8..8,
    ) {
        // `over == 0` is the largest weight the i32 lanes take for this
        // pair, `over == 1` the smallest that needs i64 lanes; the signs
        // vary which of the three weights carries the extreme.
        let w = i32_weight_limit(a.len(), b.len()) + over;
        let sign = |bit: u8| if signs & (1 << bit) != 0 { w } else { -w };
        let scheme = ScoringScheme {
            match_score: sign(0),
            mismatch_score: sign(1),
            gap_score: sign(2),
        };
        assert_matches_reference(&a, &b, &scheme);
    }
}

#[test]
fn kernel_matches_reference_on_empty_inputs() {
    let scheme = ScoringScheme::default();
    for (a, b) in [(&[][..], &[][..]), (&[1u8, 2, 3][..], &[][..]), (&[][..], &[4u8, 5][..])] {
        assert_matches_reference(a, b, &scheme);
    }
    let al = needleman_wunsch::<u8>(&[], &[], |x, y| x == y, &scheme);
    assert!(al.is_empty());
    assert_eq!(al.score, 0);
}

#[test]
fn kernel_matches_reference_with_wide_weights() {
    // Far past the i32 lanes: scores only fit i64.
    let a: Vec<u8> = (0..50).map(|i| (i * 7 % 5) as u8).collect();
    let b: Vec<u8> = (0..43).map(|i| (i * 3 % 5) as u8).collect();
    for w in [1i64 << 31, 1 << 40] {
        let scheme = ScoringScheme { match_score: w, mismatch_score: -w / 2, gap_score: -w };
        assert_matches_reference(&a, &b, &scheme);
        let al = needleman_wunsch(&a, &b, |x, y| x == y, &scheme);
        assert!(al.score.unsigned_abs() > i32::MAX as u64, "wide score {}", al.score);
    }
}

#[test]
fn kernel_matches_reference_on_lopsided_extremes() {
    let scheme = ScoringScheme::default();
    let long: Vec<u8> = (0..3000).map(|i| (i % 4) as u8).collect();
    for short in [vec![], vec![2u8], vec![3, 0, 1]] {
        assert_matches_reference(&long, &short, &scheme);
        assert_matches_reference(&short, &long, &scheme);
    }
}

#[test]
fn nw_handles_degenerate_equivalence() {
    // Everything equivalent to everything: all columns should be matches.
    let a = [1u8, 2, 3];
    let b = [9u8, 9, 9];
    let al = needleman_wunsch(&a, &b, |_, _| true, &ScoringScheme::default());
    assert_eq!(al.match_count(), 3);
    // Nothing equivalent: score should be max(gap-only, mismatch mix).
    let al: Alignment = needleman_wunsch(&a, &b, |_, _| false, &ScoringScheme::default());
    assert_eq!(al.match_count(), 0);
}
