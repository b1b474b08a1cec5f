//! Property-based tests for the alignment algorithms.

use fmsa_align::{
    banded_needleman_wunsch, needleman_wunsch, plan, AlignPlan, Alignment, ScoringScheme, Step,
    BAND, FULL_MATRIX_CELLS, MAX_LEN,
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

/// The row-major banded kernel the anti-diagonal one replaced, kept
/// verbatim as the oracle: an `i64` score and a direction per cell of the
/// band, filled row by row, out-of-band neighbours read as a sentinel far
/// below any score. The library's banded kernel must reproduce it step
/// for step.
fn reference_banded_nw<T>(
    a: &[T],
    b: &[T],
    eq: impl Fn(&T, &T) -> bool,
    scheme: &ScoringScheme,
    band: usize,
) -> Alignment {
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Dir {
        Diag,
        Up,
        Left,
        None,
    }

    const NEG: i64 = i64::MIN / 4;

    let n = a.len();
    let m = b.len();
    // Offsets d = j - i covered by the band.
    let lo = -((band + n.saturating_sub(m)) as i64);
    let hi = (band + m.saturating_sub(n)) as i64;
    let width = (hi - lo + 1) as usize;
    // score[i * width + k] is cell (i, j) with k = j - i - lo.
    let mut score = vec![NEG; (n + 1) * width];
    let mut dir = vec![Dir::None; (n + 1) * width];
    let cell = |i: usize, j: usize| -> Option<usize> {
        let d = j as i64 - i as i64;
        (d >= lo && d <= hi).then(|| i * width + (d - lo) as usize)
    };
    for j in 0..=m {
        let Some(c) = cell(0, j) else { break };
        score[c] = j as i64 * scheme.gap_score;
        dir[c] = if j == 0 { Dir::None } else { Dir::Left };
    }
    for i in 1..=n {
        if let Some(c) = cell(i, 0) {
            score[c] = i as i64 * scheme.gap_score;
            dir[c] = Dir::Up;
        }
        let j_min = 1.max(i as i64 + lo) as usize;
        let j_max = (m as i64).min(i as i64 + hi) as usize;
        for j in j_min..=j_max {
            let c = cell(i, j).expect("in band");
            let matched = eq(&a[i - 1], &b[j - 1]);
            let sub = if matched { scheme.match_score } else { scheme.mismatch_score };
            let diag = cell(i - 1, j - 1).map_or(NEG, |p| score[p]).saturating_add(sub);
            let up = cell(i - 1, j).map_or(NEG, |p| score[p]).saturating_add(scheme.gap_score);
            let left = cell(i, j - 1).map_or(NEG, |p| score[p]).saturating_add(scheme.gap_score);
            let (best, d) = if diag >= up && diag >= left {
                (diag, Dir::Diag)
            } else if up >= left {
                (up, Dir::Up)
            } else {
                (left, Dir::Left)
            };
            score[c] = best;
            dir[c] = d;
        }
    }
    // Traceback from (n, m); the corner is always in the band because the
    // band is widened by the length difference.
    let end = cell(n, m).expect("corner in band");
    let mut steps = Vec::with_capacity(n.max(m));
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        let c = cell(i, j).expect("traceback stays in band");
        match dir[c] {
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
    Alignment { steps, score: score[end] }
}

/// Asserts the library kernel reproduces the reference kernel exactly.
fn assert_matches_reference(a: &[u8], b: &[u8], scheme: &ScoringScheme) {
    let got = needleman_wunsch(a, b, |x, y| x == y, scheme);
    let want = reference_nw(a, b, |x, y| x == y, scheme);
    assert_eq!(got.score, want.score, "score, {a:?} vs {b:?} under {scheme:?}");
    assert_eq!(got.steps, want.steps, "steps, {a:?} vs {b:?} under {scheme:?}");
}

/// Asserts the library's banded kernel reproduces the reference banded
/// kernel exactly.
fn assert_banded_matches_reference(a: &[u8], b: &[u8], scheme: &ScoringScheme, band: usize) {
    let got = banded_needleman_wunsch(a, b, |x, y| x == y, scheme, band);
    let want = reference_banded_nw(a, b, |x, y| x == y, scheme, band);
    assert_eq!(got.score, want.score, "score, band {band}, {a:?} vs {b:?} under {scheme:?}");
    assert_eq!(got.steps, want.steps, "steps, band {band}, {a:?} vs {b:?} under {scheme:?}");
}

/// Largest weight magnitude for which an `n × m` program still runs on
/// `i32` lanes: `(n + m + 1) · w ≤ i32::MAX`.
fn i32_weight_limit(n: usize, m: usize) -> i64 {
    i32::MAX as i64 / (n + m + 1) as i64
}

/// The same for a banded program, whose out-of-band sentinel takes two
/// more weights: `(n + m + 3) · w ≤ i32::MAX`.
fn banded_i32_weight_limit(n: usize, m: usize) -> i64 {
    i32::MAX as i64 / (n + m + 3) as i64
}

/// A scheme whose three weights have magnitude `w`, signed by the low
/// three bits of `signs`.
fn signed_scheme(w: i64, signs: u8) -> ScoringScheme {
    let sign = |bit: u8| if signs & (1 << bit) != 0 { w } else { -w };
    ScoringScheme { match_score: sign(0), mismatch_score: sign(1), gap_score: sign(2) }
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
    fn budget_plan_is_total_and_consistent(
        n in 0usize..2 * MAX_LEN + 2,
        m in 0usize..2 * MAX_LEN + 2,
        dn in 0usize..6_000,
    ) {
        // Every length pair gets exactly the plan its lengths call for,
        // the plan does not depend on the order of the pair, and
        // shortening a side never downgrades it.
        let p = plan(n, m);
        let want = if n > MAX_LEN || m > MAX_LEN {
            AlignPlan::Skip
        } else if (n + 1) * (m + 1) <= FULL_MATRIX_CELLS {
            AlignPlan::Full
        } else {
            AlignPlan::Banded(BAND)
        };
        prop_assert_eq!(p, want);
        prop_assert_eq!(plan(m, n), p);
        let rank = |p| match p {
            AlignPlan::Full => 0,
            AlignPlan::Banded(_) => 1,
            AlignPlan::Skip => 2,
        };
        prop_assert!(rank(plan(n.saturating_sub(dn), m)) <= rank(p));
    }
}

proptest! {
    #[test]
    fn kernel_matches_reference_on_tie_heavy_inputs(
        a in tie_heavy_seq(),
        b in tie_heavy_seq(),
        band in 0usize..16,
    ) {
        let unit = ScoringScheme { match_score: 1, mismatch_score: -1, gap_score: -1 };
        for scheme in [ScoringScheme::default(), unit] {
            assert_matches_reference(&a, &b, &scheme);
            assert_banded_matches_reference(&a, &b, &scheme, band);
        }
    }

    #[test]
    fn kernel_matches_reference_on_medium_inputs(
        a in medium_seq(),
        b in medium_seq(),
        band in 0usize..16,
    ) {
        assert_matches_reference(&a, &b, &ScoringScheme::default());
        assert_banded_matches_reference(&a, &b, &ScoringScheme::default(), band);
    }

    #[test]
    fn kernel_matches_reference_on_lopsided_inputs(
        long in prop::collection::vec(0u8..3, 60..240),
        short in prop::collection::vec(0u8..3, 0..5),
        band in 0usize..16,
    ) {
        // |n - m| is wider than the band: the band is widened by it.
        let scheme = ScoringScheme::default();
        assert_matches_reference(&long, &short, &scheme);
        assert_matches_reference(&short, &long, &scheme);
        assert_banded_matches_reference(&long, &short, &scheme, band);
        assert_banded_matches_reference(&short, &long, &scheme, band);
    }

    #[test]
    fn kernel_matches_reference_under_any_scheme(
        a in medium_seq(),
        b in medium_seq(),
        band in 0usize..16,
        scheme in any_scheme(),
    ) {
        assert_matches_reference(&a, &b, &scheme);
        assert_banded_matches_reference(&a, &b, &scheme, band);
        // Covering bands, exactly and beyond.
        assert_banded_matches_reference(&a, &b, &scheme, a.len().max(b.len()));
        assert_banded_matches_reference(&a, &b, &scheme, a.len() + b.len() + band);
    }

    #[test]
    fn kernel_matches_reference_at_the_lane_switch(
        a in prop::collection::vec(0u8..3, 0..24),
        b in prop::collection::vec(0u8..3, 0..24),
        band in 0usize..16,
        over in 0i64..2,
        signs in 0u8..8,
    ) {
        // `over == 0` is the largest weight the i32 lanes take for this
        // pair, `over == 1` the smallest that needs i64 lanes; the signs
        // vary which of the three weights carries the extreme. A band's
        // lanes switch two weights earlier than the full program's.
        let (n, m) = (a.len(), b.len());
        assert_matches_reference(&a, &b, &signed_scheme(i32_weight_limit(n, m) + over, signs));
        let w = banded_i32_weight_limit(n, m) + over;
        assert_banded_matches_reference(&a, &b, &signed_scheme(w, signs), band);
    }
}

#[test]
fn kernel_matches_reference_on_empty_inputs() {
    let scheme = ScoringScheme::default();
    for (a, b) in [(&[][..], &[][..]), (&[1u8, 2, 3][..], &[][..]), (&[][..], &[4u8, 5][..])] {
        assert_matches_reference(a, b, &scheme);
        for band in [0, 1, 64] {
            assert_banded_matches_reference(a, b, &scheme, band);
        }
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
