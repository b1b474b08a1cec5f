//! Needleman-Wunsch global alignment, over the full dynamic program or a
//! diagonal band of it.
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
//! **The band.** [`banded_needleman_wunsch`] runs the same kernel over
//! the cells with `j - i ∈ [-(w + max(0, n-m)), w + max(0, m-n)]`
//! (half-width `w`, widened so the corner cell stays reachable). Each
//! diagonal's range of `i` is clipped to the band, and a [`sentinel`]
//! just outside it makes out-of-band neighbours lose. The score is
//! optimal *within the band*, a lower bound on the full-matrix score, so
//! a banded merge can only look worse than the exact one would.
//!
//! Memory is one direction byte per filled cell (`(n+1)·(m+1)` for the
//! full program, about `(n+m)·(w+1)` for a band) plus `O(n + m)`.

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
    /// `w` as a lane; callers only pass values the lane rule has bounded.
    fn lane(w: i64) -> Self;
    fn wide(self) -> i64;
}

impl Lane for i32 {
    fn lane(w: i64) -> i32 {
        i32::try_from(w).expect("score bounded by the lane rule")
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

/// The largest weight magnitude of `scheme`.
fn max_weight(scheme: &ScoringScheme) -> u128 {
    [scheme.match_score, scheme.mismatch_score, scheme.gap_score]
        .iter()
        .map(|s| s.unsigned_abs() as u128)
        .max()
        .unwrap_or(0)
}

/// Whether every cell of an `n × m` program, and every sum a cell is
/// chosen from, fits an `i32` lane: a path to `(i, j)` has at most
/// `i + j` columns, so `|score| ≤ (n + m)·w` and a candidate adds one
/// more weight.
fn fits_i32(n: usize, m: usize, scheme: &ScoringScheme) -> bool {
    (n as u128 + m as u128 + 1) * max_weight(scheme) <= i32::MAX as u128
}

/// The lane rule of a band: [`fits_i32`] with two more weights, for the
/// [`sentinel`] and a weight added to it.
fn banded_fits_i32(n: usize, m: usize, scheme: &ScoringScheme) -> bool {
    (n as u128 + m as u128 + 3) * max_weight(scheme) <= i32::MAX as u128
}

/// The score of a neighbour outside the band. Every in-band candidate is
/// at least `-(n + m + 1)·w`; the sentinel plus any weight is below that,
/// so such a neighbour never wins a cell, not even a tie, and minus any
/// weight it stays in the lane [`banded_fits_i32`] picks.
fn sentinel(n: usize, m: usize, scheme: &ScoringScheme) -> i64 {
    -((n + m + 2) as i64 * max_weight(scheme) as i64) - 1
}

/// The cells a program fills: every `(i, j)` with `i ≤ n`, `j ≤ m` and
/// `j - i ∈ [-below, above]`. The full program is the band with
/// `below = n` and `above = m`.
#[derive(Clone, Copy)]
struct Shape {
    n: usize,
    m: usize,
    below: usize,
    above: usize,
}

impl Shape {
    /// The band of half-width `w`, widened by the length difference so
    /// the corner cell `(n, m)` stays reachable.
    fn banded(n: usize, m: usize, w: usize) -> Shape {
        let below = w.saturating_add(n.saturating_sub(m)).min(n);
        let above = w.saturating_add(m.saturating_sub(n)).min(m);
        Shape { n, m, below, above }
    }

    /// The first and last `i` the shape holds on anti-diagonal `d`:
    /// `j - i = d - 2i` bounds `i` from both sides, besides `j ≤ m` and
    /// `i ≤ n`. A band one offset wide holds no cell on odd diagonals;
    /// there the range is empty, `lo = hi + 1`.
    fn rows(&self, d: usize) -> (usize, usize) {
        let lo = d.saturating_sub(self.m).max(d.saturating_sub(self.above).div_ceil(2));
        let hi = d.min(self.n).min((d + self.below) / 2);
        (lo, hi)
    }
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
    align(a, b, &eq, scheme, None)
}

/// Computes a banded global alignment of `a` and `b` with half-width
/// `band` (a `band` of 0 still covers the length-difference diagonals):
/// the kernel of [`needleman_wunsch`] over the in-band cells only.
/// Tie-breaking matches it (Diag ≥ Up ≥ Left, and a neighbour outside the
/// band never wins), so a band covering the whole matrix reproduces it.
pub fn banded_needleman_wunsch<T: Clone>(
    a: &[T],
    b: &[T],
    eq: impl Fn(&T, &T) -> bool,
    scheme: &ScoringScheme,
    band: usize,
) -> Alignment {
    align(a, b, &eq, scheme, Some(band))
}

/// Aligns `a` against `b` over the full program or the band of half-width
/// `band`, on the narrowest lanes its lane rule allows.
fn align<T: Clone>(
    a: &[T],
    b: &[T],
    eq: &impl Fn(&T, &T) -> bool,
    scheme: &ScoringScheme,
    band: Option<usize>,
) -> Alignment {
    let (n, m) = (a.len(), b.len());
    let b_rev: Vec<T> = b.iter().rev().cloned().collect();
    let (shape, outside, narrow) = match band {
        None => (Shape { n, m, below: n, above: m }, None, fits_i32(n, m, scheme)),
        Some(w) => {
            (Shape::banded(n, m, w), Some(sentinel(n, m, scheme)), banded_fits_i32(n, m, scheme))
        }
    };
    let (dirs, score) = if narrow {
        fill::<T, i32>(a, &b_rev, eq, scheme, shape, outside)
    } else {
        fill::<T, i64>(a, &b_rev, eq, scheme, shape, outside)
    };
    Alignment { steps: dirs.traceback(), score }
}

/// The direction bytes of a filled program, anti-diagonal after
/// anti-diagonal: cell `(i, j)` of diagonal `d = i + j` sits at
/// `start[d] + i - lo`, where `lo` is the shape's first row on `d`.
struct Directions {
    bytes: Vec<u8>,
    start: Vec<usize>,
    shape: Shape,
}

impl Directions {
    fn new(shape: Shape) -> Directions {
        let mut start = Vec::with_capacity(shape.n + shape.m + 2);
        let mut total = 0usize;
        for d in 0..=shape.n + shape.m {
            start.push(total);
            let (lo, hi) = shape.rows(d);
            total += (hi + 1).saturating_sub(lo);
        }
        start.push(total);
        Directions { bytes: vec![0; total], start, shape }
    }

    fn diagonal(&mut self, d: usize) -> &mut [u8] {
        &mut self.bytes[self.start[d]..self.start[d + 1]]
    }

    fn at(&self, i: usize, j: usize) -> u8 {
        let d = i + j;
        self.bytes[self.start[d] + i - self.shape.rows(d).0]
    }

    fn traceback(&self) -> Vec<Step> {
        let mut steps = Vec::with_capacity(self.shape.n.max(self.shape.m));
        let (mut i, mut j) = (self.shape.n, self.shape.m);
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

/// Fills the cells of `shape` for `a` against `b_rev`, `b` reversed, one
/// anti-diagonal at a time; returns the directions and the optimal score.
/// A band passes its [`sentinel`] as `outside`; the full program reads no
/// neighbour outside its shape.
fn fill<T, S: Lane>(
    a: &[T],
    b_rev: &[T],
    eq: &impl Fn(&T, &T) -> bool,
    scheme: &ScoringScheme,
    shape: Shape,
    outside: Option<i64>,
) -> (Directions, i64) {
    let (n, m) = (a.len(), b_rev.len());
    let (hit, miss, gap) =
        (S::lane(scheme.match_score), S::lane(scheme.mismatch_score), S::lane(scheme.gap_score));
    let border = |d: usize| S::lane(d as i64 * scheme.gap_score);
    let outside = outside.map(S::lane);
    let mut dirs = Directions::new(shape);
    // Diagonals d-2, d-1 and d, indexed by i.
    let (mut p2, mut p1, mut cur) =
        (vec![border(0); n + 1], vec![border(0); n + 1], vec![border(0); n + 1]);
    for d in 0..=n + m {
        let (lo, hi) = shape.rows(d);
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
            // Cell k reads b[j - 1] = b_rev[m - j], j = d - first - k.
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
        if let Some(s) = outside {
            // The next diagonal reads at most `lo - 1` (up) and `hi + 1`
            // (left) of this one.
            if lo > 0 {
                cur[lo - 1] = s;
            }
            if hi < n {
                cur[hi + 1] = s;
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

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    fn align_str(a: &str, b: &str) -> Alignment {
        needleman_wunsch(&chars(a), &chars(b), eq_char, &ScoringScheme::default())
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
    fn banded_lane_width_switches_exactly_at_the_i32_bound() {
        // n + m + 3 = 13: two weights more than the full program needs.
        let (n, m) = (4usize, 6usize);
        let w = i32::MAX as i64 / 13;
        let scheme = |w: i64| ScoringScheme { match_score: w, mismatch_score: -w, gap_score: -w };
        assert!(banded_fits_i32(n, m, &scheme(w)));
        assert!(!banded_fits_i32(n, m, &scheme(w + 1)));
        assert!(fits_i32(n, m, &scheme(w + 1)), "the full program still runs on i32 there");
        // At the boundary the sentinel takes any weight without leaving
        // the lane, and still loses to the lowest candidate, -(n + m + 1)·w.
        let s = sentinel(n, m, &scheme(w));
        assert!(s - w >= i32::MIN as i64, "sentinel {s} minus a weight overflows");
        assert!(s + w < -((n + m + 1) as i64) * w, "sentinel {s} plus a weight ties");
        // The boundary scheme fills on i32 lanes without overflow, all
        // gaps included.
        let a: Vec<u8> = vec![0, 1, 0, 1];
        let b: Vec<u8> = vec![1, 1, 1, 0, 0, 0];
        for scheme in [scheme(w), ScoringScheme { match_score: -w, ..scheme(w) }] {
            let al = banded_needleman_wunsch(&a, &b, |x, y| x == y, &scheme, 0);
            assert!(al.is_valid_for(n, m));
            assert_eq!(al.score, al.rescore(&scheme));
        }
    }

    #[test]
    fn banded_directions_hold_exactly_the_in_band_cells() {
        let scheme = ScoringScheme::default();
        for (n, m, w) in [(0, 0, 0), (1, 0, 0), (7, 3, 0), (3, 7, 1), (40, 40, 4), (100, 17, 8)] {
            let a: Vec<u8> = (0..n).map(|k| (k % 3) as u8).collect();
            let b: Vec<u8> = (0..m).map(|k| (k % 2) as u8).collect();
            let shape = Shape::banded(n, m, w);
            let s = Some(sentinel(n, m, &scheme));
            let b_rev: Vec<u8> = b.iter().rev().copied().collect();
            let (dirs, _) = fill::<u8, i32>(&a, &b_rev, &|x, y| x == y, &scheme, shape, s);
            let (below, above) =
                ((w + n.saturating_sub(m)) as i64, (w + m.saturating_sub(n)) as i64);
            let in_band = (0..=n)
                .flat_map(|i| (0..=m).map(move |j| j as i64 - i as i64))
                .filter(|o| (-below..=above).contains(o))
                .count();
            assert_eq!(dirs.bytes.len(), in_band, "n={n} m={m} w={w}");
        }
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

    #[test]
    fn wide_band_matches_full_nw() {
        let scheme = ScoringScheme::default();
        let cases =
            [("gattaca", "gcatgcg"), ("abcdef", "abcxdef"), ("", "abc"), ("abc", ""), ("x", "yyy")];
        for (a, b) in cases {
            let (av, bv) = (chars(a), chars(b));
            let full = needleman_wunsch(&av, &bv, |x, y| x == y, &scheme);
            let banded =
                banded_needleman_wunsch(&av, &bv, |x, y| x == y, &scheme, av.len() + bv.len());
            assert_eq!(banded.score, full.score, "{a:?} vs {b:?}");
            assert_eq!(banded.steps, full.steps, "tie-breaking must match NW for {a:?} vs {b:?}");
        }
    }

    #[test]
    fn narrow_band_still_produces_valid_alignment() {
        let a: Vec<u32> = (0..500).collect();
        let b: Vec<u32> = (0..500).map(|x| if x % 97 == 0 { 1_000_000 } else { x }).collect();
        let scheme = ScoringScheme::default();
        let al = banded_needleman_wunsch(&a, &b, |x, y| x == y, &scheme, 8);
        assert!(al.is_valid_for(a.len(), b.len()));
        assert_eq!(al.score, al.rescore(&scheme));
    }

    #[test]
    fn band_score_is_lower_bound_of_full_score() {
        let scheme = ScoringScheme::default();
        // Shifted copies: the optimal path sits `shift` off the diagonal.
        for shift in [0usize, 3, 10, 40] {
            let a: Vec<u32> = (0..200).collect();
            let b: Vec<u32> = (shift as u32..200 + shift as u32).collect();
            let full = needleman_wunsch(&a, &b, |x, y| x == y, &scheme);
            for band in [0usize, 2, 8, 64] {
                let banded = banded_needleman_wunsch(&a, &b, |x, y| x == y, &scheme, band);
                assert!(banded.is_valid_for(a.len(), b.len()));
                assert!(
                    banded.score <= full.score,
                    "banded beats optimal? shift={shift} band={band}"
                );
                if band >= 2 * shift {
                    assert_eq!(banded.score, full.score, "shift={shift} band={band}");
                }
            }
        }
    }

    #[test]
    fn unequal_lengths_are_covered_by_widened_band() {
        let scheme = ScoringScheme::default();
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (0..17).collect();
        let al = banded_needleman_wunsch(&a, &b, |x, y| x == y, &scheme, 0);
        assert!(al.is_valid_for(a.len(), b.len()));
        let al = banded_needleman_wunsch(&b, &a, |x, y| x == y, &scheme, 0);
        assert!(al.is_valid_for(b.len(), a.len()));
    }

    #[test]
    fn identical_sequences_band_zero() {
        let a: Vec<u32> = (0..1000).collect();
        let scheme = ScoringScheme::default();
        let al = banded_needleman_wunsch(&a, &a, |x, y| x == y, &scheme, 0);
        assert_eq!(al.match_count(), 1000);
        assert_eq!(al.score, 1000 * scheme.match_score);
    }
}
