//! Candidate ranking (paper §IV).
//!
//! "For each function f1, we use a priority queue to rank the topmost
//! similar candidates based on their similarity, defined by s(f1, f2), for
//! all other functions f2. We use an exploration threshold to limit how
//! many top candidates we will evaluate for any given function."
//!
//! The ranking hot path is zero-clone and allocation-bounded: candidates
//! are scored through *borrowed* fingerprints and kept in a min-heap of at
//! most `threshold` entries, so ranking n candidates costs O(n log t) with
//! O(t) transient memory instead of the O(n log n)/O(n) of heapifying the
//! whole pool.

use crate::fingerprint::Fingerprint;
use fmsa_ir::FuncId;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A ranked merge candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The candidate function.
    pub func: FuncId,
    /// Fingerprint similarity `s(f1, f2)` in `[0, 0.5]`.
    pub similarity: f64,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Total order: by similarity, ties broken by function id so the
        // exploration is deterministic.
        self.similarity
            .partial_cmp(&other.similarity)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.func.cmp(&self.func))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Ranks every entry of `pool` (other than `subject` itself) against
/// `subject`'s fingerprint and returns the top `threshold` candidates,
/// most similar first.
///
/// `pool` yields *borrowed* fingerprints — a candidate index ranks
/// straight over the fingerprints it holds without cloning an entry.
///
/// `min_similarity` prunes hopeless candidates early (a similarity of 0
/// means no opcode or no type overlap at all).
pub fn rank_candidates<'a, I>(
    subject: FuncId,
    subject_fp: &Fingerprint,
    pool: I,
    threshold: usize,
    min_similarity: f64,
) -> Vec<Candidate>
where
    I: IntoIterator<Item = (FuncId, &'a Fingerprint)>,
{
    if threshold == 0 {
        return Vec::new();
    }
    // Min-heap of the best `threshold` seen so far; the root is the current
    // worst keeper, evicted whenever a better candidate arrives.
    let mut keep: BinaryHeap<Reverse<Candidate>> =
        BinaryHeap::with_capacity(threshold.min(64).saturating_add(1));
    for (func, fp) in pool {
        if func == subject {
            continue;
        }
        let s = subject_fp.similarity(fp);
        if s < min_similarity {
            continue;
        }
        let cand = Candidate { func, similarity: s };
        if keep.len() < threshold {
            keep.push(Reverse(cand));
        } else if let Some(worst) = keep.peek() {
            if cand > worst.0 {
                keep.pop();
                keep.push(Reverse(cand));
            }
        }
    }
    let mut out: Vec<Candidate> = keep.into_iter().map(|Reverse(c)| c).collect();
    out.sort_by(|a, b| b.cmp(a));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmsa_ir::{FuncBuilder, Module, Value};

    fn fn_with_adds(m: &mut Module, name: &str, adds: usize) -> FuncId {
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let f = m.create_function(name, fn_ty);
        let mut b = FuncBuilder::new(m, f);
        let entry = b.block("entry");
        b.switch_to(entry);
        let mut v = Value::Param(0);
        for _ in 0..adds {
            v = b.add(v, b.const_i32(1));
        }
        b.ret(Some(v));
        f
    }

    fn ranked(
        subject: FuncId,
        sfp: &Fingerprint,
        pool: &[(FuncId, Fingerprint)],
        threshold: usize,
        min_similarity: f64,
    ) -> Vec<Candidate> {
        rank_candidates(
            subject,
            sfp,
            pool.iter().map(|(f, fp)| (*f, fp)),
            threshold,
            min_similarity,
        )
    }

    #[test]
    fn most_similar_first_and_threshold_respected() {
        let mut m = Module::new("m");
        let subject = fn_with_adds(&mut m, "subject", 10);
        let twin = fn_with_adds(&mut m, "twin", 10);
        let close = fn_with_adds(&mut m, "close", 8);
        let far = fn_with_adds(&mut m, "far", 1);
        let pool: Vec<(FuncId, Fingerprint)> =
            [subject, twin, close, far].into_iter().map(|f| (f, Fingerprint::of(&m, f))).collect();
        let sfp = Fingerprint::of(&m, subject);
        let top = ranked(subject, &sfp, &pool, 2, 0.0);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].func, twin);
        assert_eq!(top[1].func, close);
        assert!(top[0].similarity >= top[1].similarity);
        let all = ranked(subject, &sfp, &pool, 10, 0.0);
        assert_eq!(all.len(), 3, "subject itself excluded");
    }

    #[test]
    fn min_similarity_prunes() {
        let mut m = Module::new("m");
        let subject = fn_with_adds(&mut m, "subject", 10);
        let far = fn_with_adds(&mut m, "far", 1);
        let pool: Vec<(FuncId, Fingerprint)> =
            [subject, far].into_iter().map(|f| (f, Fingerprint::of(&m, f))).collect();
        let sfp = Fingerprint::of(&m, subject);
        let top = ranked(subject, &sfp, &pool, 10, 0.49);
        assert!(top.is_empty(), "far twin pruned by min similarity: {top:?}");
    }

    #[test]
    fn deterministic_tie_breaking() {
        let mut m = Module::new("m");
        let subject = fn_with_adds(&mut m, "subject", 5);
        let t1 = fn_with_adds(&mut m, "t1", 5);
        let t2 = fn_with_adds(&mut m, "t2", 5);
        let pool: Vec<(FuncId, Fingerprint)> =
            [subject, t1, t2].into_iter().map(|f| (f, Fingerprint::of(&m, f))).collect();
        let sfp = Fingerprint::of(&m, subject);
        let a = ranked(subject, &sfp, &pool, 2, 0.0);
        let b = ranked(subject, &sfp, &pool, 2, 0.0);
        assert_eq!(a, b);
        assert_eq!(a[0].func, t1, "lower id wins ties");
    }

    #[test]
    fn bounded_heap_matches_full_sort() {
        // The top-t of the bounded heap must equal the first t entries of a
        // full descending sort, for every t.
        let mut m = Module::new("m");
        let subject = fn_with_adds(&mut m, "subject", 12);
        let pool: Vec<(FuncId, Fingerprint)> = (0..20)
            .map(|k| {
                let f = fn_with_adds(&mut m, &format!("c{k}"), 1 + k % 13);
                (f, Fingerprint::of(&m, f))
            })
            .collect();
        let sfp = Fingerprint::of(&m, subject);
        let full = ranked(subject, &sfp, &pool, usize::MAX, 0.0);
        for t in [1usize, 3, 7, 20, 50] {
            let top = ranked(subject, &sfp, &pool, t, 0.0);
            assert_eq!(top, full[..t.min(full.len())], "t={t}");
        }
        assert!(ranked(subject, &sfp, &pool, 0, 0.0).is_empty());
    }
}
