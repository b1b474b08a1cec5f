//! # fmsa-align — sequence alignment for function merging
//!
//! Generic pairwise sequence alignment as used by the FMSA reproduction
//! (Rocha et al., CGO 2019, §III-C). The paper aligns two *linearized
//! functions* with the Needleman-Wunsch algorithm under "a standard scoring
//! scheme that rewards matches and equally penalizes mismatches and gaps";
//! this crate provides that algorithm, over the full matrix or a band of
//! it (one kernel), and the fixed per-pair budget ([`plan`]) that chooses.
//!
//! The crate is IR-agnostic: alignment works over any element type with a
//! caller-supplied equivalence relation.
//!
//! # Examples
//!
//! ```
//! use fmsa_align::{needleman_wunsch, ScoringScheme, Step};
//!
//! let a = [1, 2, 3, 4];
//! let b = [1, 3, 4, 5];
//! let al = needleman_wunsch(&a, &b, |x, y| x == y, &ScoringScheme::default());
//! assert_eq!(al.match_count(), 3);
//! // Projections reconstruct the inputs in order.
//! let lhs: Vec<usize> = al.steps.iter().filter_map(Step::left_index).collect();
//! assert_eq!(lhs, vec![0, 1, 2, 3]);
//! ```

#![warn(missing_docs)]

mod budget;
mod nw;

pub use budget::{align_with_plan, plan, AlignPlan, BAND, FULL_MATRIX_CELLS, MAX_LEN};
pub use nw::{banded_needleman_wunsch, needleman_wunsch};

/// Weights for the alignment dynamic program.
///
/// The paper uses "a standard scoring scheme ... that rewards matches and
/// equally penalizes mismatches and gaps", which is the default here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoringScheme {
    /// Score added when two equivalent elements are aligned.
    pub match_score: i64,
    /// Score added when two non-equivalent elements are aligned.
    pub mismatch_score: i64,
    /// Score added when an element is aligned against a blank.
    pub gap_score: i64,
}

impl Default for ScoringScheme {
    fn default() -> Self {
        ScoringScheme { match_score: 2, mismatch_score: -1, gap_score: -1 }
    }
}

/// One column of an alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step {
    /// Elements `a[i]` and `b[j]` are aligned; `matched` records whether
    /// they were equivalent under the relation (otherwise it is a
    /// mismatch column).
    Both {
        /// Index into the first sequence.
        i: usize,
        /// Index into the second sequence.
        j: usize,
        /// Whether the pair was equivalent.
        matched: bool,
    },
    /// `a[i]` aligned against a blank in the second sequence.
    Left(usize),
    /// `b[j]` aligned against a blank in the first sequence.
    Right(usize),
}

impl Step {
    /// The first-sequence index consumed by this column, if any.
    pub fn left_index(&self) -> Option<usize> {
        match *self {
            Step::Both { i, .. } | Step::Left(i) => Some(i),
            Step::Right(_) => None,
        }
    }

    /// The second-sequence index consumed by this column, if any.
    pub fn right_index(&self) -> Option<usize> {
        match *self {
            Step::Both { j, .. } | Step::Right(j) => Some(j),
            Step::Left(_) => None,
        }
    }

    /// Whether this is a match column.
    pub fn is_match(&self) -> bool {
        matches!(self, Step::Both { matched: true, .. })
    }
}

/// A global alignment of two sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Alignment columns, in order.
    pub steps: Vec<Step>,
    /// Total score under the scheme that produced it.
    pub score: i64,
}

impl Alignment {
    /// Number of match columns.
    pub fn match_count(&self) -> usize {
        self.steps.iter().filter(|s| s.is_match()).count()
    }

    /// Number of columns (the common aligned length `l` of the paper's
    /// formal definition, `max(k1,k2) <= l <= k1+k2`).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the alignment is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Fraction of columns that are matches, in `[0, 1]`.
    pub fn identity(&self) -> f64 {
        if self.steps.is_empty() {
            return 1.0;
        }
        self.match_count() as f64 / self.steps.len() as f64
    }

    /// Compact CIGAR-like rendering: `M`=match, `X`=mismatch, `D`=gap in
    /// second sequence, `I`=gap in first sequence, run-length encoded.
    pub fn cigar(&self) -> String {
        let mut out = String::new();
        let mut run_char = ' ';
        let mut run_len = 0usize;
        let flush = |c: char, n: usize, out: &mut String| {
            if n > 0 {
                out.push_str(&n.to_string());
                out.push(c);
            }
        };
        for s in &self.steps {
            let c = match s {
                Step::Both { matched: true, .. } => 'M',
                Step::Both { matched: false, .. } => 'X',
                Step::Left(_) => 'D',
                Step::Right(_) => 'I',
            };
            if c == run_char {
                run_len += 1;
            } else {
                flush(run_char, run_len, &mut out);
                run_char = c;
                run_len = 1;
            }
        }
        flush(run_char, run_len, &mut out);
        out
    }

    /// Checks the structural invariants of a global alignment of sequences
    /// of lengths `n` and `m`: each side's indices appear exactly once, in
    /// increasing order. Used by property tests.
    pub fn is_valid_for(&self, n: usize, m: usize) -> bool {
        let lhs: Vec<usize> = self.steps.iter().filter_map(Step::left_index).collect();
        let rhs: Vec<usize> = self.steps.iter().filter_map(Step::right_index).collect();
        lhs == (0..n).collect::<Vec<_>>() && rhs == (0..m).collect::<Vec<_>>()
    }

    /// Recomputes the score of this alignment under `scheme`.
    pub fn rescore(&self, scheme: &ScoringScheme) -> i64 {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Both { matched: true, .. } => scheme.match_score,
                Step::Both { matched: false, .. } => scheme.mismatch_score,
                Step::Left(_) | Step::Right(_) => scheme.gap_score,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cigar_rendering() {
        let al = Alignment {
            steps: vec![
                Step::Both { i: 0, j: 0, matched: true },
                Step::Both { i: 1, j: 1, matched: true },
                Step::Left(2),
                Step::Right(2),
                Step::Both { i: 3, j: 3, matched: false },
            ],
            score: 0,
        };
        assert_eq!(al.cigar(), "2M1D1I1X");
        assert_eq!(al.match_count(), 2);
        assert!((al.identity() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn validity_checks_order_and_coverage() {
        let good = Alignment {
            steps: vec![Step::Both { i: 0, j: 0, matched: true }, Step::Left(1)],
            score: 0,
        };
        assert!(good.is_valid_for(2, 1));
        assert!(!good.is_valid_for(1, 1));
        let bad = Alignment { steps: vec![Step::Left(1), Step::Left(0)], score: 0 };
        assert!(!bad.is_valid_for(2, 0));
    }
}
