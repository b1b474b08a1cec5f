//! Hirschberg's linear-space global alignment.
//!
//! The paper notes that "other algorithms could also be used with different
//! performance and memory usage trade-offs" (§III-C). Hirschberg's
//! divide-and-conquer formulation computes an optimal global alignment in
//! `O(nm)` time but only `O(n + m)` space, which matters when aligning the
//! multi-thousand-instruction functions in Table I.

use crate::{needleman_wunsch, Alignment, ScoringScheme, Step};

/// Computes an optimal global alignment using Hirschberg's linear-space
/// divide-and-conquer algorithm. The resulting score always equals the
/// Needleman-Wunsch score (the alignment itself may differ among co-optimal
/// alignments).
pub fn hirschberg<T: Clone>(
    a: &[T],
    b: &[T],
    eq: impl Fn(&T, &T) -> bool + Copy,
    scheme: &ScoringScheme,
) -> Alignment {
    let mut steps = Vec::with_capacity(a.len().max(b.len()));
    rec(a, b, 0, 0, eq, scheme, &mut steps);
    let score = Alignment { steps: steps.clone(), score: 0 }.rescore(scheme);
    Alignment { steps, score }
}

/// Last row of the NW score matrix for `a` vs `b` (forward direction).
fn nw_last_row<T>(
    a: &[T],
    b: &[T],
    eq: impl Fn(&T, &T) -> bool,
    scheme: &ScoringScheme,
) -> Vec<i64> {
    let m = b.len();
    let mut prev: Vec<i64> = (0..=m).map(|j| j as i64 * scheme.gap_score).collect();
    let mut cur = vec![0i64; m + 1];
    for (i, ai) in a.iter().enumerate() {
        cur[0] = (i as i64 + 1) * scheme.gap_score;
        for j in 1..=m {
            let sub = if eq(ai, &b[j - 1]) { scheme.match_score } else { scheme.mismatch_score };
            cur[j] = (prev[j - 1] + sub)
                .max(prev[j] + scheme.gap_score)
                .max(cur[j - 1] + scheme.gap_score);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev
}

fn rec<T: Clone>(
    a: &[T],
    b: &[T],
    a_off: usize,
    b_off: usize,
    eq: impl Fn(&T, &T) -> bool + Copy,
    scheme: &ScoringScheme,
    out: &mut Vec<Step>,
) {
    if a.is_empty() {
        out.extend((0..b.len()).map(|j| Step::Right(b_off + j)));
        return;
    }
    if b.is_empty() {
        out.extend((0..a.len()).map(|i| Step::Left(a_off + i)));
        return;
    }
    if a.len() == 1 || b.len() == 1 {
        // Base case: full NW is cheap and exact.
        let al = needleman_wunsch(a, b, eq, scheme);
        out.extend(al.steps.into_iter().map(|s| shift(s, a_off, b_off)));
        return;
    }
    let mid = a.len() / 2;
    let (a_top, a_bot) = a.split_at(mid);
    // Forward scores of the top half vs every prefix of b.
    let fwd = nw_last_row(a_top, b, eq, scheme);
    // Backward scores of the bottom half vs every suffix of b (align the
    // reversed sequences).
    let a_rev: Vec<&T> = a_bot.iter().rev().collect();
    let b_rev: Vec<&T> = b.iter().rev().collect();
    let bwd = nw_last_row(&a_rev, &b_rev, |x, y| eq(x, y), scheme);
    // Pick the split point of b maximizing total score.
    let m = b.len();
    let mut best_j = 0;
    let mut best = i64::MIN;
    for j in 0..=m {
        let total = fwd[j] + bwd[m - j];
        if total > best {
            best = total;
            best_j = j;
        }
    }
    let (b_top, b_bot) = b.split_at(best_j);
    rec(a_top, b_top, a_off, b_off, eq, scheme, out);
    rec(a_bot, b_bot, a_off + mid, b_off + best_j, eq, scheme, out);
}

fn shift(s: Step, a_off: usize, b_off: usize) -> Step {
    match s {
        Step::Both { i, j, matched } => Step::Both { i: i + a_off, j: j + b_off, matched },
        Step::Left(i) => Step::Left(i + a_off),
        Step::Right(j) => Step::Right(j + b_off),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    #[test]
    fn matches_nw_score_on_examples() {
        let scheme = ScoringScheme::default();
        let cases = [
            ("gattaca", "gcatgcg"),
            ("abcdef", "abcxdef"),
            ("", "abc"),
            ("abc", ""),
            ("same", "same"),
            ("abacabadabacaba", "abadacabacabaab"),
            ("x", "yyyyy"),
        ];
        for (a, b) in cases {
            let (av, bv) = (chars(a), chars(b));
            let h = hirschberg(&av, &bv, |x, y| x == y, &scheme);
            let n = needleman_wunsch(&av, &bv, |x, y| x == y, &scheme);
            assert_eq!(h.score, n.score, "scores differ for {a:?} vs {b:?}");
            assert!(h.is_valid_for(av.len(), bv.len()), "invalid alignment for {a:?} vs {b:?}");
        }
    }

    #[test]
    fn handles_long_sequences_without_quadratic_memory() {
        // A 2000 x 2000 full NW program would hold 4 MB of direction
        // bytes; this test mostly guards against stack overflow / index
        // bugs at size.
        let a: Vec<u32> = (0..2000).map(|i| i % 17).collect();
        let b: Vec<u32> = (0..2000).map(|i| (i + 3) % 17).collect();
        let scheme = ScoringScheme::default();
        let h = hirschberg(&a, &b, |x, y| x == y, &scheme);
        assert!(h.is_valid_for(a.len(), b.len()));
        assert_eq!(h.score, h.rescore(&scheme));
    }
}
