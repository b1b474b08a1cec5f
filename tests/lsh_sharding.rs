//! Cross-crate tests of the band-sharded LSH index: parity with a flat
//! single-map reference model under arbitrary insert/remove/query
//! interleavings (same shortlists, same ranked candidate order), batch
//! insertion vs one-at-a-time insertion, and the persistent
//! [`FunctionStore`]'s restart rebuild into the sharded layout.

use fmsa::core::fingerprint::Fingerprint;
use fmsa::core::ranking::{rank_candidates, Candidate};
use fmsa::core::search::lsh::{BANDS, HASHES};
use fmsa::core::search::{CandidateSearch, LshSearch};
use fmsa::core::store::{canonical_function_text, ContentHash, FunctionStore};
use fmsa::ir::{FuncBuilder, FuncId, Module, Value};
use proptest::prelude::*;
use std::collections::HashMap;

/// Reference model: one flat bucket table keyed by the *actual band
/// rows* `(band, chunk)` instead of per-band sharded maps of row
/// hashes. Collision in a band is defined semantically — equal rows —
/// so the model is layout-free; the production index must shortlist
/// exactly the same co-members.
#[derive(Default)]
struct FlatLsh {
    rows: usize,
    signatures: HashMap<FuncId, Vec<u64>>,
    buckets: HashMap<(usize, Vec<u64>), Vec<FuncId>>,
}

impl FlatLsh {
    fn new() -> FlatLsh {
        FlatLsh { rows: HASHES / BANDS, ..FlatLsh::default() }
    }

    fn insert(&mut self, func: FuncId, sig: Vec<u64>) {
        self.remove(func);
        for (band, chunk) in sig.chunks_exact(self.rows).enumerate() {
            self.buckets.entry((band, chunk.to_vec())).or_default().push(func);
        }
        self.signatures.insert(func, sig);
    }

    fn remove(&mut self, func: FuncId) {
        let Some(sig) = self.signatures.remove(&func) else {
            return;
        };
        for (band, chunk) in sig.chunks_exact(self.rows).enumerate() {
            if let Some(members) = self.buckets.get_mut(&(band, chunk.to_vec())) {
                members.retain(|&f| f != func);
            }
        }
    }

    fn shortlist(&self, subject: FuncId) -> Vec<FuncId> {
        let Some(sig) = self.signatures.get(&subject) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (band, chunk) in sig.chunks_exact(self.rows).enumerate() {
            if let Some(members) = self.buckets.get(&(band, chunk.to_vec())) {
                out.extend(members.iter().copied().filter(|&f| f != subject));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A pool of functions with enough shape variety that some pairs share
/// LSH bands and others don't: chains of adds/muls/xors whose lengths
/// derive from a seed.
fn shape_pool(seed: u64, count: usize) -> (Module, Vec<FuncId>) {
    let mut m = Module::new("shapes");
    let i32t = m.types.i32();
    let fn_ty = m.types.func(i32t, vec![i32t]);
    let mut ids = Vec::new();
    for k in 0..count {
        // Few distinct shapes → plenty of near-duplicates in the pool.
        let shape = (seed as usize + k) % 4;
        let f = m.create_function(format!("f{k}"), fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let mut v = Value::Param(0);
        for _ in 0..(6 + shape * 3) {
            v = b.add(v, b.const_i32(shape as i32 + 1));
        }
        for _ in 0..(2 + shape) {
            v = b.mul(v, b.const_i32(3));
        }
        // A distinct trailing constant keeps every body textually unique
        // (the store must not dedupe family members into one entry) while
        // same-shape functions stay fingerprint-identical near-clones.
        v = b.xor(v, b.const_i32(k as i32));
        b.ret(Some(v));
        ids.push(f);
    }
    (m, ids)
}

fn fingerprints(m: &Module, ids: &[FuncId]) -> HashMap<FuncId, Fingerprint> {
    ids.iter().map(|&f| (f, Fingerprint::of(m, f))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Under any interleaving of inserts, removals, and queries, the
    /// sharded index shortlists exactly the functions the flat
    /// rows-equality model predicts, and ranking the shortlist yields
    /// the same candidates in the same order.
    #[test]
    fn sharded_index_matches_flat_model(
        seed in 0u64..1_000,
        ops in prop::collection::vec(0usize..48, 1..80),
    ) {
        let (m, ids) = shape_pool(seed, 16);
        let fps = fingerprints(&m, &ids);
        let mut sharded = LshSearch::new();
        let mut flat = FlatLsh::new();
        for &v in &ops {
            let (op, k) = (v % 3, v / 3);
            let f = ids[k];
            match op {
                0 => {
                    sharded.insert(f, fps[&f].clone());
                    flat.insert(f, sharded.signature_of(f).expect("just inserted").to_vec());
                }
                1 => {
                    sharded.remove(f);
                    flat.remove(f);
                }
                _ => {
                    prop_assert_eq!(sharded.shortlist(f), flat.shortlist(f));
                    let got: Vec<Candidate> = sharded.candidates(f, 5, 0.0);
                    let want: Vec<Candidate> = rank_candidates(
                        f,
                        &fps[&f],
                        flat.shortlist(f).into_iter().map(|g| (g, &fps[&g])),
                        5,
                        0.0,
                    );
                    prop_assert_eq!(got, want);
                }
            }
        }
        // Final sweep: every function's view agrees, indexed or not.
        for &f in &ids {
            prop_assert_eq!(sharded.shortlist(f), flat.shortlist(f));
        }
    }

    /// Batch insertion (signatures hashed on the pool, one job per band
    /// shard) is indistinguishable from serial one-at-a-time insertion,
    /// on a four-thread pool and on a one-thread pool, which runs every
    /// job on the calling thread.
    #[test]
    fn batch_insert_matches_serial_insert(seed in 0u64..1_000, count in 2usize..24) {
        let (m, ids) = shape_pool(seed, count);
        let fps = fingerprints(&m, &ids);
        let mut serial = LshSearch::new();
        for &f in &ids {
            serial.insert(f, fps[&f].clone());
        }
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
            let mut batched = LshSearch::new();
            batched.insert_batch(ids.iter().map(|&f| (f, fps[&f].clone())).collect(), &pool);
            prop_assert_eq!(serial.len(), batched.len());
            for &f in &ids {
                prop_assert_eq!(serial.signature_of(f), batched.signature_of(f));
                prop_assert_eq!(serial.shortlist(f), batched.shortlist(f));
                prop_assert_eq!(serial.candidates(f, 5, 0.0), batched.candidates(f, 5, 0.0));
            }
        }
    }
}

/// The persistent store's restart path rebuilds the sharded index from
/// durable signatures: `similar()` answers must be identical before and
/// after a reopen.
#[test]
fn store_restart_rebuilds_sharded_index() {
    let n = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .subsec_nanos();
    let dir = std::env::temp_dir().join(format!("fmsa-lsh-rebuild-{}-{n}", std::process::id()));
    let (m, ids) = shape_pool(7, 20);
    let hashes: Vec<ContentHash> = ids
        .iter()
        .map(|&f| ContentHash::of_bytes(canonical_function_text(&m, f).as_bytes()))
        .collect();
    let before: Vec<_> = {
        let mut store = FunctionStore::open(&dir).expect("open");
        store.ingest_module(&m).expect("ingest");
        hashes.iter().map(|&h| store.similar(h, 5)).collect()
    };
    assert!(
        before.iter().any(|s| !s.is_empty()),
        "shape pool must produce at least one similar pair"
    );
    let reopened = FunctionStore::open(&dir).expect("reopen");
    let after: Vec<_> = hashes.iter().map(|&h| reopened.similar(h, 5)).collect();
    assert_eq!(before, after, "rebuilt index must answer identically");
    std::fs::remove_dir_all(&dir).ok();
}
