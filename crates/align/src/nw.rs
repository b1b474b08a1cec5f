//! Needleman-Wunsch global alignment (full dynamic program).
//!
//! "Our work uses the Needleman-Wunsch algorithm to perform sequence
//! alignment. This algorithm gives an alignment that is guaranteed to be
//! optimal for a given scoring scheme." (§III-C). The algorithm is
//! quadratic in time in the lengths of the sequences — which is exactly
//! why the paper's Fig. 13 shows alignment dominating the compile-time
//! breakdown — so the kernel is laid out for a tight inner loop:
//!
//! * **Anti-diagonal order.** Cell `(i, j)` depends on `(i-1, j-1)`,
//!   `(i-1, j)` and `(i, j-1)`, all on the two previous anti-diagonals
//!   `i + j - 2` and `i + j - 1`. The cells of one anti-diagonal are
//!   therefore independent of each other, and the inner loop over them
//!   carries no dependence from one iteration to the next.
//! * **Both sequences stream forward.** Along an anti-diagonal `i` rises
//!   while `j` falls, so `b` is reversed once up front; cell `(i, j)` then
//!   reads `a[i-1]` and `b_rev[m - d + i]`, both in increasing order.
//! * **Linear score memory.** Scores live in three diagonal buffers
//!   (`d-2`, `d-1`, `d`) of `n + 1` lanes each, indexed by `i`. Lanes are
//!   `i32` whenever `(n + m + 1) · max|weight|` fits, which bounds every
//!   cell and every candidate sum; otherwise the same generic kernel runs
//!   at `i64`.
//! * **One direction byte per cell.** The traceback reads a byte per cell
//!   (hit, miss, up, left), stored diagonal after diagonal, so it never
//!   calls the equivalence relation again.
//!
//! Memory is `(n+1)·(m+1)` bytes of directions plus `O(n + m)` of scores
//! and diagonal offsets.

use crate::{Alignment, ScoringScheme, Step};
use std::ops::Add;

/// Diagonal move onto an equivalent pair.
const HIT: u8 = 0;
/// Diagonal move onto a non-equivalent pair.
const MISS: u8 = 1;
/// `a[i]` against a gap.
const UP: u8 = 2;
/// `b[j]` against a gap.
const LEFT: u8 = 3;

/// A score lane of the dynamic program.
trait Lane: Copy + Ord + Add<Output = Self> {
    /// `w` as a lane; callers only pass values [`fits_i32`] has bounded.
    fn lane(w: i64) -> Self;
    fn wide(self) -> i64;
}

impl Lane for i32 {
    fn lane(w: i64) -> i32 {
        i32::try_from(w).expect("score bounded by fits_i32")
    }
    fn wide(self) -> i64 {
        self as i64
    }
}

impl Lane for i64 {
    fn lane(w: i64) -> i64 {
        w
    }
    fn wide(self) -> i64 {
        self
    }
}

/// Whether every cell of an `n × m` program, and every sum a cell is
/// chosen from, fits an `i32` lane: a path to `(i, j)` has at most
/// `i + j` columns, so `|score| ≤ (n + m)·w` and a candidate adds one
/// more weight.
fn fits_i32(n: usize, m: usize, scheme: &ScoringScheme) -> bool {
    let w = [scheme.match_score, scheme.mismatch_score, scheme.gap_score]
        .iter()
        .map(|s| s.unsigned_abs() as u128)
        .max()
        .unwrap_or(0);
    (n as u128 + m as u128 + 1) * w <= i32::MAX as u128
}

/// Computes the optimal global alignment of `a` and `b` under `scheme`,
/// using `eq` as the element-equivalence relation.
///
/// Tie-breaking is deterministic: diagonal moves are preferred over gaps in
/// the first sequence, which are preferred over gaps in the second. This
/// keeps merged-function code generation reproducible run to run.
///
/// `eq` is called exactly once per cell. It is cheapest when the elements
/// are small keys compared with `==` (the merge pass aligns interned
/// `u32` equivalence keys), which lets the inner loop vectorize.
pub fn needleman_wunsch<T: Clone>(
    a: &[T],
    b: &[T],
    eq: impl Fn(&T, &T) -> bool,
    scheme: &ScoringScheme,
) -> Alignment {
    let b_rev: Vec<T> = b.iter().rev().cloned().collect();
    let (dirs, score) = if fits_i32(a.len(), b.len(), scheme) {
        fill::<T, i32>(a, &b_rev, &eq, scheme)
    } else {
        fill::<T, i64>(a, &b_rev, &eq, scheme)
    };
    Alignment { steps: dirs.traceback(), score }
}

/// The direction bytes of a filled program, anti-diagonal after
/// anti-diagonal: cell `(i, j)` of diagonal `d = i + j` sits at
/// `start[d] + i - max(0, d - m)`.
struct Directions {
    bytes: Vec<u8>,
    start: Vec<usize>,
    n: usize,
    m: usize,
}

impl Directions {
    fn new(n: usize, m: usize) -> Directions {
        let mut start = Vec::with_capacity(n + m + 2);
        let mut total = 0usize;
        for d in 0..=n + m {
            start.push(total);
            total += d.min(n) - d.saturating_sub(m) + 1;
        }
        start.push(total);
        Directions { bytes: vec![0; total], start, n, m }
    }

    fn diagonal(&mut self, d: usize) -> &mut [u8] {
        &mut self.bytes[self.start[d]..self.start[d + 1]]
    }

    fn at(&self, i: usize, j: usize) -> u8 {
        let d = i + j;
        self.bytes[self.start[d] + i - d.saturating_sub(self.m)]
    }

    fn traceback(&self) -> Vec<Step> {
        let mut steps = Vec::with_capacity(self.n.max(self.m));
        let (mut i, mut j) = (self.n, self.m);
        while i > 0 || j > 0 {
            match self.at(i, j) {
                code @ (HIT | MISS) => {
                    steps.push(Step::Both { i: i - 1, j: j - 1, matched: code == HIT });
                    i -= 1;
                    j -= 1;
                }
                UP => {
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
        steps
    }
}

/// Fills the program of `a` against `b` (given reversed) one
/// anti-diagonal at a time; returns the directions and the optimal score.
fn fill<T, S: Lane>(
    a: &[T],
    b_rev: &[T],
    eq: &impl Fn(&T, &T) -> bool,
    scheme: &ScoringScheme,
) -> (Directions, i64) {
    let (n, m) = (a.len(), b_rev.len());
    let (hit, miss, gap) =
        (S::lane(scheme.match_score), S::lane(scheme.mismatch_score), S::lane(scheme.gap_score));
    let border = |d: usize| S::lane(d as i64 * scheme.gap_score);
    let mut dirs = Directions::new(n, m);
    // Diagonals d-2, d-1 and d, indexed by i.
    let (mut p2, mut p1, mut cur) =
        (vec![border(0); n + 1], vec![border(0); n + 1], vec![border(0); n + 1]);
    for d in 0..=n + m {
        let (lo, hi) = (d.saturating_sub(m), d.min(n));
        let row = dirs.diagonal(d);
        if lo == 0 {
            // (0, d): b[..d] against gaps.
            cur[0] = border(d);
            row[0] = LEFT;
        }
        if hi == d {
            // (d, 0): a[..d] against gaps.
            cur[d] = border(d);
            row[d - lo] = UP;
        }
        // Interior cells i in [max(1, lo), min(hi, d - 1)].
        let first = lo.max(1);
        let last = hi.min(d.saturating_sub(1));
        if first <= last {
            let len = last - first + 1;
            let xs = &a[first - 1..][..len];
            let ys = &b_rev[m + first - d..][..len];
            let diag = &p2[first - 1..][..len];
            let up = &p1[first - 1..][..len];
            let left = &p1[first..][..len];
            let out = &mut cur[first..][..len];
            let out_dir = &mut row[first - lo..][..len];
            for k in 0..len {
                let matched = eq(&xs[k], &ys[k]);
                let dg = diag[k] + if matched { hit } else { miss };
                let (u, l) = (up[k] + gap, left[k] + gap);
                // Deterministic preference: Diag >= Up >= Left.
                let diag_dir = if matched { HIT } else { MISS };
                let gap_dir = if u >= l { UP } else { LEFT };
                out_dir[k] = if dg >= u && dg >= l { diag_dir } else { gap_dir };
                out[k] = dg.max(u).max(l);
            }
        }
        std::mem::swap(&mut p2, &mut p1);
        std::mem::swap(&mut p1, &mut cur);
    }
    // After the last rotation diagonal n + m, holding only (n, m), is p1.
    (dirs, p1[n].wide())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eq_char(a: &char, b: &char) -> bool {
        a == b
    }

    fn align_str(a: &str, b: &str) -> Alignment {
        let av: Vec<char> = a.chars().collect();
        let bv: Vec<char> = b.chars().collect();
        needleman_wunsch(&av, &bv, eq_char, &ScoringScheme::default())
    }

    #[test]
    fn identical_sequences_align_perfectly() {
        let al = align_str("gattaca", "gattaca");
        assert_eq!(al.match_count(), 7);
        assert_eq!(al.cigar(), "7M");
        assert!(al.is_valid_for(7, 7));
    }

    #[test]
    fn empty_sequences() {
        let al = align_str("", "");
        assert!(al.is_empty());
        assert_eq!(al.score, 0);
        let al = align_str("abc", "");
        assert_eq!(al.cigar(), "3D");
        assert_eq!(al.score, -3);
        let al = align_str("", "ab");
        assert_eq!(al.cigar(), "2I");
    }

    #[test]
    fn classic_gattaca_example() {
        // A standard NW textbook pair.
        let al = align_str("gcatgcg", "gattaca");
        assert!(al.is_valid_for(7, 7));
        assert_eq!(al.score, al.rescore(&ScoringScheme::default()));
    }

    #[test]
    fn insertion_detected() {
        let al = align_str("abcdef", "abcxdef");
        assert_eq!(al.match_count(), 6);
        assert_eq!(al.cigar(), "3M1I3M");
    }

    #[test]
    fn deletion_detected() {
        let al = align_str("abcxdef", "abcdef");
        assert_eq!(al.match_count(), 6);
        assert_eq!(al.cigar(), "3M1D3M");
    }

    #[test]
    fn substitution_prefers_mismatch_column() {
        let al = align_str("abc", "axc");
        assert_eq!(al.cigar(), "1M1X1M");
    }

    #[test]
    fn score_is_optimal_for_simple_cases() {
        let scheme = ScoringScheme::default();
        let al = align_str("aaaa", "aaa");
        // 3 matches + 1 gap.
        assert_eq!(al.score, 3 * scheme.match_score + scheme.gap_score);
    }

    #[test]
    fn deterministic_output() {
        let a = align_str("abacabadabacaba", "abadacabacabaab");
        let b = align_str("abacabadabacaba", "abadacabacabaab");
        assert_eq!(a, b);
    }

    #[test]
    fn lane_width_switches_exactly_at_the_i32_bound() {
        // n + m + 1 = 11 columns bound every score.
        let w = i32::MAX as i64 / 11;
        let scheme = |w: i64| ScoringScheme { match_score: 1, mismatch_score: -1, gap_score: -w };
        assert!(fits_i32(4, 6, &scheme(w)));
        assert!(!fits_i32(4, 6, &scheme(w + 1)));
        assert!(fits_i32(0, 0, &ScoringScheme::default()));
        assert!(!fits_i32(usize::MAX, usize::MAX, &ScoringScheme::default()));
    }

    #[test]
    fn custom_equivalence_relation() {
        // Case-insensitive equivalence: a non-trivial relation, like the
        // paper's instruction equivalence.
        let a: Vec<char> = "AbC".chars().collect();
        let b: Vec<char> = "abc".chars().collect();
        let al =
            needleman_wunsch(&a, &b, |x, y| x.eq_ignore_ascii_case(y), &ScoringScheme::default());
        assert_eq!(al.match_count(), 3);
    }
}
