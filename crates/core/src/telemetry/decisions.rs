//! Per-attempt merge decision log.
//!
//! Every candidate the driver considers gets one structured record —
//! who was paired with whom, the ranking similarity, the alignment
//! score, the estimated Δ, and how the attempt resolved. The log is
//! the first real instrument for tuning the paper's threshold/ranking
//! heuristics: `fmsa_opt --explain-merges out.jsonl` dumps it as JSON
//! lines, and the daemon serves the most recent records from
//! `GET /v1/merges/recent?n=K`.
//!
//! Records are bounded ([`DecisionLog::DEFAULT_CAP`]); outcome
//! *counts* are unconditional, so they reconcile exactly against
//! `PipelineStats` even when old records have been evicted.

use std::collections::VecDeque;

/// How one merge attempt resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionOutcome {
    /// Profitable and committed.
    Merged,
    /// Merged body built and evaluated, Δ ≤ 0 — discarded.
    Unprofitable,
    /// The pre-codegen Δ bound proved the merge unprofitable; codegen
    /// was skipped.
    GateSkipped,
    /// The alignment budget refused the pair (over its length cap), so
    /// it was never aligned.
    BudgetSkipped,
    /// The attempt faulted (align/codegen/verify) and was quarantined.
    Quarantined,
    /// Codegen returned an error (no merged body to evaluate).
    Failed,
}

impl DecisionOutcome {
    /// Stable lowercase identifier used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionOutcome::Merged => "merged",
            DecisionOutcome::Unprofitable => "unprofitable",
            DecisionOutcome::GateSkipped => "gate-skipped",
            DecisionOutcome::BudgetSkipped => "budget-skipped",
            DecisionOutcome::Quarantined => "quarantined",
            DecisionOutcome::Failed => "failed",
        }
    }

    /// All outcomes, in the order used by [`DecisionLog`] counts.
    pub const ALL: [DecisionOutcome; 6] = [
        DecisionOutcome::Merged,
        DecisionOutcome::Unprofitable,
        DecisionOutcome::GateSkipped,
        DecisionOutcome::BudgetSkipped,
        DecisionOutcome::Quarantined,
        DecisionOutcome::Failed,
    ];

    fn idx(self) -> usize {
        DecisionOutcome::ALL.iter().position(|o| *o == self).unwrap()
    }
}

/// One recorded merge attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Subject function name (the function seeking a partner).
    pub subject: String,
    /// Candidate partner's function name.
    pub candidate: String,
    /// Ranking similarity estimate for the pair (in `[0, 0.5]`).
    pub similarity: f64,
    /// 1-based position of the candidate in the subject's ranked list.
    pub rank: u32,
    /// Sequence alignment score, when alignment ran.
    pub align_score: Option<i64>,
    /// Estimated size delta Δ from the profitability model, when the
    /// merged body was built and evaluated (positive = profitable).
    pub delta: Option<i64>,
    /// The pipeline's pre-codegen upper bound on Δ, for every attempt
    /// that reached the gate (`None` for the ungated sequential driver,
    /// budget-skipped pairs, and pairs whose merge set-up fails). A
    /// `delta` above it would be a soundness bug of the gate.
    pub delta_bound: Option<i64>,
    /// How the attempt resolved.
    pub outcome: DecisionOutcome,
}

impl DecisionRecord {
    /// Renders the record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"subject\":\"{}\",\"candidate\":\"{}\",\"similarity\":{},\"rank\":{}",
            super::json_escape(&self.subject),
            super::json_escape(&self.candidate),
            super::json_f64(self.similarity),
            self.rank
        );
        match self.align_score {
            Some(s) => out.push_str(&format!(",\"align_score\":{}", s)),
            None => out.push_str(",\"align_score\":null"),
        }
        for (key, value) in [("delta", self.delta), ("delta_bound", self.delta_bound)] {
            match value {
                Some(d) => out.push_str(&format!(",\"{key}\":{d}")),
                None => out.push_str(&format!(",\"{key}\":null")),
            }
        }
        out.push_str(&format!(",\"outcome\":\"{}\"}}", self.outcome.as_str()));
        out
    }
}

/// A bounded ring of [`DecisionRecord`]s with unconditional outcome
/// counts.
#[derive(Debug, Clone)]
pub struct DecisionLog {
    records: VecDeque<DecisionRecord>,
    cap: usize,
    dropped: u64,
    counts: [u64; DecisionOutcome::ALL.len()],
}

impl Default for DecisionLog {
    fn default() -> DecisionLog {
        DecisionLog::new(DecisionLog::DEFAULT_CAP)
    }
}

impl DecisionLog {
    /// Default record capacity — large enough to hold every attempt of
    /// a 5 000-function swarm run.
    pub const DEFAULT_CAP: usize = 65536;

    /// Creates a log retaining at most `cap` records (counts are
    /// always exact regardless of `cap`).
    pub fn new(cap: usize) -> DecisionLog {
        DecisionLog {
            records: VecDeque::new(),
            cap,
            dropped: 0,
            counts: [0; DecisionOutcome::ALL.len()],
        }
    }

    /// Appends a record, evicting the oldest when at capacity.
    pub fn push(&mut self, r: DecisionRecord) {
        self.counts[r.outcome.idx()] += 1;
        if self.records.len() == self.cap {
            self.records.pop_front();
            self.dropped += 1;
        }
        if self.cap > 0 {
            self.records.push_back(r);
        } else {
            self.dropped += 1;
        }
    }

    /// Moves every record (and count) from `other` into `self`,
    /// leaving `other` empty.
    pub fn append(&mut self, other: &mut DecisionLog) {
        for i in 0..self.counts.len() {
            self.counts[i] += other.counts[i];
            other.counts[i] = 0;
        }
        self.dropped += other.dropped;
        other.dropped = 0;
        while let Some(r) = other.records.pop_front() {
            if self.records.len() == self.cap {
                self.records.pop_front();
                self.dropped += 1;
            }
            if self.cap > 0 {
                self.records.push_back(r);
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records evicted (or refused) due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total attempts recorded (including evicted ones).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Attempts that resolved as `outcome` (including evicted ones).
    pub fn count(&self, outcome: DecisionOutcome) -> u64 {
        self.counts[outcome.idx()]
    }

    /// Iterates retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &DecisionRecord> {
        self.records.iter()
    }

    /// The `n` most recent retained records, oldest first.
    pub fn recent(&self, n: usize) -> Vec<&DecisionRecord> {
        let skip = self.records.len().saturating_sub(n);
        self.records.iter().skip(skip).collect()
    }

    /// Renders every retained record as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }
}
