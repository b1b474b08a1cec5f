//! Banded LSH index over MinHash signatures.
//!
//! Signatures of [`HASHES`] words are split into [`BANDS`] bands of
//! `rows = HASHES / BANDS` positions each; a function lands in one bucket
//! per band, keyed by the hash of that band's rows. Two functions collide
//! in *some* band — and therefore shortlist each other — with probability
//! `1 − (1 − s^rows)^bands` where `s` is their signature agreement rate.
//! See [`super`] for the parameter trade-off discussion.
//!
//! The index is incremental: `insert`/`remove` touch only the function's
//! own `BANDS` buckets, so the merge feedback loop maintains it in O(1)
//! per update instead of rebuilding a candidate pool per iteration.
//!
//! # Band sharding
//!
//! The bucket table is **sharded by band**: one `HashMap` per band
//! instead of a single map keyed by `(band, rows)` hashes. Queries are
//! unchanged (a shortlist reads the subject's bucket in every shard and
//! sorts the union, so shard layout is invisible to ranking), but bulk
//! maintenance parallelizes: [`LshSearch::insert_batch`] hashes
//! signatures on the worker pool and then fills all `BANDS` shards
//! concurrently, one worker per shard, with no locks — each band's
//! bucket membership order is the batch order, exactly what serial
//! insertion would have produced. That turns the million-function index
//! seed from the pass's largest serial cost into a parallel one.

use super::minhash::MinHasher;
use super::CandidateSearch;
use crate::fingerprint::Fingerprint;
use crate::ranking::{rank_candidates, Candidate};
use fmsa_ir::FuncId;
use std::collections::HashMap;

// 128 hashes in 8 bands of 16 rows, calibrated on clone-swarm modules:
// family pairs (signature agreement ≥ 0.87 measured) collide with ≈ 0.98
// average probability, while generator noise (agreement ~0.6) collides
// ≈ 3.6% of the time, keeping shortlists ~30× smaller than the module.
// The occurrence cap of 64 keeps instruction *counts* visible to the
// signature — capping harder (e.g. 8) made every mid-sized function look
// alike and inflated buckets enough that LSH lost to the exact scan.
// Store logs persist the signatures: another `HASHES` or occurrence cap
// gives new uploads signatures that no longer match the stored ones.

/// Signature length (number of MinHash permutations).
pub const HASHES: usize = 128;
/// Number of bands the signature is split into; divides [`HASHES`].
pub const BANDS: usize = 8;
/// Signature rows per band.
const ROWS: usize = HASHES / BANDS;
/// Per-feature occurrence cap when building signatures.
const OCCURRENCE_CAP: u32 = 64;

/// FNV-style key of one band's signature rows. The band index is folded
/// into the seed so equal row values in different bands cannot alias —
/// historically this let all bands share one bucket map; with per-band
/// shards it is redundant but kept so keys stay stable across layouts.
fn band_key(band: usize, chunk: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (band as u64).wrapping_mul(0x100_0000_01b3);
    for &x in chunk {
        h ^= x;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Near-constant-time candidate shortlisting via banded MinHash LSH.
#[derive(Debug, Clone)]
pub struct LshSearch {
    hasher: MinHasher,
    /// Stored signature per indexed function (needed to find its buckets
    /// again on removal).
    signatures: HashMap<FuncId, Vec<u64>>,
    /// One bucket map per band: `shards[band][band_key] → members`.
    /// Vectors stay tiny for healthy parameters; membership order is
    /// irrelevant because queries sort the shortlist. Disjoint by
    /// construction, so batch maintenance runs one worker per shard.
    shards: Vec<HashMap<u64, Vec<FuncId>>>,
}

impl LshSearch {
    /// Empty index.
    pub fn new() -> LshSearch {
        LshSearch {
            hasher: MinHasher::new(HASHES, OCCURRENCE_CAP),
            signatures: HashMap::new(),
            shards: vec![HashMap::new(); BANDS],
        }
    }

    /// `(band, key)` pairs of a signature, one per shard.
    fn band_keys(sig: &[u64]) -> impl Iterator<Item = (usize, u64)> + '_ {
        sig.chunks_exact(ROWS).enumerate().map(|(band, chunk)| (band, band_key(band, chunk)))
    }

    /// Inserts `func` under a precomputed MinHash signature, skipping the
    /// fingerprint hashing. This is how the persistent store
    /// ([`crate::store`]) rebuilds the index from disk on restart:
    /// signatures are durable, fingerprints are not. The signature length
    /// must be [`HASHES`].
    pub fn insert_signature(&mut self, func: FuncId, sig: Vec<u64>) {
        assert_eq!(sig.len(), HASHES, "signature length must match HASHES");
        if self.signatures.contains_key(&func) {
            self.remove(func);
        }
        for (band, key) in Self::band_keys(&sig) {
            self.shards[band].entry(key).or_default().push(func);
        }
        self.signatures.insert(func, sig);
    }

    /// The stored signature of `func`, if indexed — what the persistent
    /// store writes to disk.
    pub fn signature_of(&self, func: FuncId) -> Option<&[u64]> {
        self.signatures.get(&func).map(Vec::as_slice)
    }

    /// Computes the MinHash signature `insert` would store for `fp`,
    /// without touching the index.
    pub fn signature_for(&self, fp: &Fingerprint) -> Vec<u64> {
        self.hasher.signature(fp)
    }

    /// The bucket co-members of `subject`, sorted and deduplicated —
    /// exposed for tests and diagnostics.
    pub fn shortlist(&self, subject: FuncId) -> Vec<FuncId> {
        let Some(sig) = self.signatures.get(&subject) else {
            return Vec::new();
        };
        let mut out: Vec<FuncId> = Vec::new();
        for (band, key) in Self::band_keys(sig) {
            if let Some(members) = self.shards[band].get(&key) {
                out.extend(members.iter().copied().filter(|&f| f != subject));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl Default for LshSearch {
    fn default() -> Self {
        LshSearch::new()
    }
}

impl CandidateSearch for LshSearch {
    fn insert(&mut self, func: FuncId, fp: &Fingerprint) {
        self.insert_signature(func, self.hasher.signature(fp));
    }

    /// Parallel bulk insert: signatures are hashed on the pool
    /// (`MinHasher` is pure, so contents match the serial path), then
    /// every band shard is filled by its own worker — shards are
    /// disjoint maps, so no synchronization is needed, and each band's
    /// bucket membership order is the batch order, identical to what
    /// one-at-a-time insertion would produce.
    fn insert_batch(&mut self, items: &[(FuncId, &Fingerprint)], pool: Option<&rayon::ThreadPool>) {
        // Refresh semantics first (rare in batch callers; the seed and
        // store-rebuild paths only ever batch fresh functions).
        for &(func, _) in items {
            if self.signatures.contains_key(&func) {
                self.remove(func);
            }
        }
        let hasher = &self.hasher;
        let sigs: Vec<(FuncId, Vec<u64>)> = match pool {
            Some(pool) if pool.current_num_threads() > 1 && items.len() > 1 => {
                pool.par_map(items, |_, &(func, fp)| (func, hasher.signature(fp)))
            }
            _ => items.iter().map(|&(func, fp)| (func, hasher.signature(fp))).collect(),
        };
        match pool {
            Some(pool) if pool.current_num_threads() > 1 && self.shards.len() > 1 => {
                pool.scope(|s| {
                    for (band, shard) in self.shards.iter_mut().enumerate() {
                        let sigs = &sigs;
                        s.spawn(move |_| {
                            for (func, sig) in sigs {
                                let key = band_key(band, &sig[band * ROWS..(band + 1) * ROWS]);
                                shard.entry(key).or_default().push(*func);
                            }
                        });
                    }
                });
            }
            _ => {
                for (band, shard) in self.shards.iter_mut().enumerate() {
                    for (func, sig) in &sigs {
                        let key = band_key(band, &sig[band * ROWS..(band + 1) * ROWS]);
                        shard.entry(key).or_default().push(*func);
                    }
                }
            }
        }
        self.signatures.extend(sigs);
    }

    fn remove(&mut self, func: FuncId) {
        let Some(sig) = self.signatures.remove(&func) else {
            return;
        };
        for (band, key) in Self::band_keys(&sig) {
            if let Some(members) = self.shards[band].get_mut(&key) {
                members.retain(|&f| f != func);
                if members.is_empty() {
                    self.shards[band].remove(&key);
                }
            }
        }
    }

    fn candidates(
        &self,
        subject: FuncId,
        subject_fp: &Fingerprint,
        fingerprints: &HashMap<FuncId, Fingerprint>,
        threshold: usize,
        min_similarity: f64,
    ) -> Vec<Candidate> {
        let shortlist = self.shortlist(subject);
        rank_candidates(
            subject,
            subject_fp,
            shortlist.into_iter().filter_map(|f| fingerprints.get(&f).map(|fp| (f, fp))),
            threshold,
            min_similarity,
        )
    }

    fn len(&self) -> usize {
        self.signatures.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmsa_ir::{FuncBuilder, Module, Value};

    fn chain_fn(m: &mut Module, name: &str, adds: usize, muls: usize) -> FuncId {
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let f = m.create_function(name, fn_ty);
        let mut b = FuncBuilder::new(m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let mut v = Value::Param(0);
        for _ in 0..adds {
            v = b.add(v, b.const_i32(1));
        }
        for _ in 0..muls {
            v = b.mul(v, b.const_i32(3));
        }
        b.ret(Some(v));
        f
    }

    fn index_all(m: &Module, ids: &[FuncId]) -> (LshSearch, HashMap<FuncId, Fingerprint>) {
        let mut idx = LshSearch::new();
        let mut fps = HashMap::new();
        for &f in ids {
            let fp = Fingerprint::of(m, f);
            idx.insert(f, &fp);
            fps.insert(f, fp);
        }
        (idx, fps)
    }

    #[test]
    fn twins_shortlist_each_other() {
        let mut m = Module::new("m");
        let a = chain_fn(&mut m, "a", 12, 3);
        let b = chain_fn(&mut m, "b", 12, 3);
        let far = chain_fn(&mut m, "far", 1, 14);
        let (idx, fps) = index_all(&m, &[a, b, far]);
        assert!(idx.shortlist(a).contains(&b));
        let top = idx.candidates(a, &fps[&a], &fps, 5, 0.0);
        assert_eq!(top[0].func, b);
    }

    #[test]
    fn removal_evicts_from_buckets() {
        let mut m = Module::new("m");
        let a = chain_fn(&mut m, "a", 12, 3);
        let b = chain_fn(&mut m, "b", 12, 3);
        let (mut idx, _) = index_all(&m, &[a, b]);
        assert_eq!(idx.len(), 2);
        idx.remove(b);
        assert_eq!(idx.len(), 1);
        assert!(idx.shortlist(a).is_empty());
        // Double-remove is a no-op.
        idx.remove(b);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn collision_probability_is_an_s_curve() {
        // Probability that two functions with signature agreement `s`
        // collide in at least one band.
        let collision_probability = |s: f64| 1.0 - (1.0 - s.powi(ROWS as i32)).powi(BANDS as i32);
        // Near-duplicates (clone-family regime) are almost always caught...
        assert!(collision_probability(0.95) > 0.95);
        assert!(collision_probability(0.9) > 0.8);
        // ...while generator noise rarely collides.
        assert!(collision_probability(0.6) < 0.05);
        assert!(collision_probability(0.2) < 1e-6);
        assert!(collision_probability(0.9) > collision_probability(0.5));
    }

    #[test]
    fn query_for_unknown_subject_is_empty() {
        let mut m = Module::new("m");
        let a = chain_fn(&mut m, "a", 3, 3);
        let idx = LshSearch::new();
        let fps = HashMap::from([(a, Fingerprint::of(&m, a))]);
        assert!(idx.candidates(a, &fps[&a], &fps, 5, 0.0).is_empty());
    }
}
