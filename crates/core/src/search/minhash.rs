//! MinHash signatures over fingerprint feature multisets.
//!
//! A function's fingerprint (opcode frequencies + type frequencies, §IV)
//! is viewed as a *multiset of features*: one feature per occurrence of an
//! opcode or type, capped per key so one hot loop cannot dominate the
//! signature. The MinHash of that multiset estimates the Jaccard
//! similarity between two functions' feature multisets — an unbiased,
//! constant-size proxy for the paper's similarity estimate, cheap enough
//! to bucket (see [`super::lsh`]).
//!
//! Each permutation is simulated by re-mixing a per-feature base hash with
//! a per-permutation seed (the standard "one hash function, k seeds"
//! construction), so a signature costs `O(features × hashes)` multiplies
//! and no allocation beyond the feature bases and the signature.
//!
//! # Kernels
//!
//! The per-seed reduction is one loop (`min_lanes`), compiled three
//! times: for the baseline target, for AVX2, and for AVX-512F/DQ/VL,
//! whose 64-bit lane multiplies the baseline x86-64 target cannot use.
//! [`MinHasher::new`] picks the fastest copy the host supports once,
//! with `is_x86_feature_detected!`; the portable copy is the reference
//! and the path on other hosts and architectures. Every copy computes
//! the same integers, which the parity tests check kernel by kernel
//! against the naive double loop. The module's one `unsafe` block is the
//! call into the chosen copy: a `#[target_feature]` function may only
//! run where its features exist, and a SIMD kernel is only created after
//! detection found them.

use crate::fingerprint::Fingerprint;

/// Signature builder: `hashes` permutations, occurrences capped at
/// `occurrence_cap` per feature key. Per-permutation seeds are precomputed
/// once here — they depend only on the slot index, and recomputing them
/// per feature occurrence would double the hashing work of every
/// signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHasher {
    /// Number of hash permutations (signature length).
    pub hashes: usize,
    /// Per-key occurrence cap when expanding the multiset.
    pub occurrence_cap: u32,
    seeds: Vec<u64>,
    /// The lane loop this host runs, chosen once by [`Kernel::detect`].
    kernel: Kernel,
}

/// splitmix64-style finalizer: the avalanche stage used to both derive
/// per-permutation seeds and mix features.
#[inline(always)]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Feature-id tags keeping opcode and type features disjoint.
const TAG_OPCODE: u64 = 0x01 << 56;
const TAG_TYPE: u64 = 0x02 << 56;

/// Width of one seed-lane chunk in [`min_lanes`]: small enough that the
/// running minima live in registers, and one 512-bit vector of `u64`s.
const LANES: usize = 8;

/// The signature's inner loop: `sig[k] = min over bases of
/// mix(base ^ seeds[k])`.
///
/// Structured for the cache, not the formula: the seed dimension is
/// processed in fixed-width chunks of [`LANES`] slots, each chunk
/// streaming over all bases with a register-resident block of running
/// minima and a branch-free `min`. Every [`Kernel`] runs this one source;
/// they differ only in the instruction set it is compiled for.
#[inline(always)]
fn min_lanes(bases: &[u64], seeds: &[u64], sig: &mut [u64]) {
    let mut slot_chunks = sig.chunks_exact_mut(LANES);
    let mut seed_chunks = seeds.chunks_exact(LANES);
    for (slots, seeds) in (&mut slot_chunks).zip(&mut seed_chunks) {
        let mut minima = [u64::MAX; LANES];
        for &base in bases {
            for lane in 0..LANES {
                let h = mix(base ^ seeds[lane]);
                minima[lane] = minima[lane].min(h);
            }
        }
        slots.copy_from_slice(&minima);
    }
    // Signature lengths that are not a multiple of LANES finish with a
    // scalar tail.
    for (slot, &seed) in slot_chunks.into_remainder().iter_mut().zip(seed_chunks.remainder()) {
        let mut min = u64::MAX;
        for &base in bases {
            min = min.min(mix(base ^ seed));
        }
        *slot = min;
    }
}

/// [`min_lanes`] compiled for AVX2 (four `u64` lanes per vector; the
/// 64-bit multiplies are emulated).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn min_lanes_avx2(bases: &[u64], seeds: &[u64], sig: &mut [u64]) {
    min_lanes(bases, seeds, sig);
}

/// [`min_lanes`] compiled for AVX-512 (eight `u64` lanes per vector, with
/// AVX-512DQ's 64-bit multiply and AVX-512F's unsigned 64-bit `min`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn min_lanes_avx512(bases: &[u64], seeds: &[u64], sig: &mut [u64]) {
    min_lanes(bases, seeds, sig);
}

/// Which compiled copy of [`min_lanes`] a [`MinHasher`] runs. All compute
/// the same integers; only their speed differs. A SIMD variant is only
/// ever created by [`Kernel::supported`], after it checked the host's
/// features, which is what makes [`Kernel::run`] sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// The reference: the path on other hosts and architectures.
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kernel {
    /// Every kernel this host can run, fastest first; the portable loop
    /// is always there, last.
    fn supported() -> Vec<Kernel> {
        let mut kernels = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512dq")
                && is_x86_feature_detected!("avx512vl")
            {
                kernels.push(Kernel::Avx512);
            }
            if is_x86_feature_detected!("avx2") {
                kernels.push(Kernel::Avx2);
            }
        }
        kernels.push(Kernel::Portable);
        kernels
    }

    /// The fastest kernel this host can run.
    fn detect() -> Kernel {
        Kernel::supported()[0]
    }

    fn run(self, bases: &[u64], seeds: &[u64], sig: &mut [u64]) {
        let kernel: unsafe fn(&[u64], &[u64], &mut [u64]) = match self {
            Kernel::Portable => min_lanes,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => min_lanes_avx2,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => min_lanes_avx512,
        };
        // SAFETY: `Kernel::supported` is the only place a SIMD variant is
        // made, and it makes `Avx2` only after `is_x86_feature_detected!`
        // found avx2, and `Avx512` only after it found avx512f, avx512dq
        // and avx512vl, on this host. The portable loop needs nothing.
        unsafe { kernel(bases, seeds, sig) }
    }
}

impl MinHasher {
    /// Builder with the given signature length and occurrence cap, running
    /// the fastest kernel this host supports.
    pub fn new(hashes: usize, occurrence_cap: u32) -> MinHasher {
        assert!(hashes > 0, "signature needs at least one hash");
        assert!(occurrence_cap > 0, "occurrence cap must be positive");
        let seeds =
            (0..hashes as u64).map(|i| mix(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1))).collect();
        MinHasher { hashes, occurrence_cap, seeds, kernel: Kernel::detect() }
    }

    /// Computes the MinHash signature of `fp`'s feature multiset.
    ///
    /// The per-occurrence feature bases (`mix(feature | occ << 40)`) are
    /// materialized once up front — hoisting the base `mix` out of the
    /// seed loop — and the chosen kernel reduces them per seed. The
    /// multiset of `(base, seed)` pairs hashed is exactly the naive
    /// double loop's, and `min` is order-independent, so the signature is
    /// bit-identical to the reference form on every kernel (see the
    /// parity tests) — which matters because signatures persist in the
    /// `FunctionStore` and feed LSH bucketing.
    pub fn signature(&self, fp: &Fingerprint) -> Vec<u64> {
        let bases = self.feature_bases(fp);
        let mut sig = vec![u64::MAX; self.hashes];
        self.kernel.run(&bases, &self.seeds, &mut sig);
        sig
    }

    /// Expands `fp` into the per-occurrence feature base hashes, capped
    /// at `occurrence_cap` per feature key. The order is the reference
    /// absorb order (opcodes, then types); consumers must not depend on
    /// it — `signature` reduces with an order-independent `min`.
    fn feature_bases(&self, fp: &Fingerprint) -> Vec<u64> {
        let mut bases = Vec::new();
        let mut absorb = |feature: u64, count: u32| {
            for occ in 0..count.min(self.occurrence_cap) as u64 {
                bases.push(mix(feature | (occ << 40)));
            }
        };
        for (k, &count) in fp.opcode_freqs().iter().enumerate() {
            if count > 0 {
                absorb(TAG_OPCODE | k as u64, count);
            }
        }
        for (ty, count) in fp.type_freqs() {
            absorb(TAG_TYPE | ty.index() as u64, count);
        }
        bases
    }
}

/// Fraction of positions on which two signatures agree — the MinHash
/// estimate of the underlying feature-multiset Jaccard similarity.
pub fn estimated_jaccard(a: &[u64], b: &[u64]) -> f64 {
    assert_eq!(a.len(), b.len(), "signatures must have equal length");
    if a.is_empty() {
        return 0.0;
    }
    let agree = a.iter().zip(b).filter(|(x, y)| x == y).count();
    agree as f64 / a.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmsa_ir::{FuncBuilder, Module, Opcode, TyId, Value};
    use proptest::prelude::*;

    fn chain_fn(m: &mut Module, name: &str, adds: usize, muls: usize) -> Fingerprint {
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
        Fingerprint::of(m, f)
    }

    #[test]
    fn identical_fingerprints_identical_signatures() {
        let mut m = Module::new("m");
        let fa = chain_fn(&mut m, "a", 6, 2);
        let fb = chain_fn(&mut m, "b", 6, 2);
        let h = MinHasher::new(32, 8);
        assert_eq!(h.signature(&fa), h.signature(&fb));
        assert_eq!(estimated_jaccard(&h.signature(&fa), &h.signature(&fb)), 1.0);
    }

    #[test]
    fn similar_beats_dissimilar() {
        let mut m = Module::new("m");
        let subject = chain_fn(&mut m, "s", 10, 2);
        let near = chain_fn(&mut m, "near", 9, 2);
        let far = chain_fn(&mut m, "far", 1, 12);
        let h = MinHasher::new(64, 8);
        let ss = h.signature(&subject);
        let sn = h.signature(&near);
        let sf = h.signature(&far);
        assert!(
            estimated_jaccard(&ss, &sn) > estimated_jaccard(&ss, &sf),
            "near {} vs far {}",
            estimated_jaccard(&ss, &sn),
            estimated_jaccard(&ss, &sf)
        );
    }

    #[test]
    fn signatures_are_deterministic() {
        let mut m = Module::new("m");
        let fa = chain_fn(&mut m, "a", 5, 5);
        let h = MinHasher::new(16, 4);
        assert_eq!(h.signature(&fa), h.signature(&fa));
    }

    /// The reference signature: the naive `occurrences × seeds` double
    /// loop the lane-chunked `signature` restructures. Kept verbatim so
    /// the parity tests pin the restructuring to the historical bits —
    /// signatures persist on disk (`FunctionStore`) and feed LSH
    /// bucketing, so any drift would silently change merge decisions.
    fn reference_signature(h: &MinHasher, fp: &Fingerprint) -> Vec<u64> {
        let mut sig = vec![u64::MAX; h.hashes];
        let seeds: Vec<u64> = (0..h.hashes as u64)
            .map(|i| mix(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1)))
            .collect();
        let mut absorb = |feature: u64, count: u32| {
            for occ in 0..count.min(h.occurrence_cap) as u64 {
                let base = mix(feature | (occ << 40));
                for (slot, &seed) in sig.iter_mut().zip(&seeds) {
                    let hash = mix(base ^ seed);
                    if hash < *slot {
                        *slot = hash;
                    }
                }
            }
        };
        for (k, &count) in fp.opcode_freqs().iter().enumerate() {
            if count > 0 {
                absorb(TAG_OPCODE | k as u64, count);
            }
        }
        for (ty, count) in fp.type_freqs() {
            absorb(TAG_TYPE | ty.index() as u64, count);
        }
        sig
    }

    /// Every kernel this host supports, called directly (not through the
    /// choice `MinHasher::new` made), against the reference loop.
    fn assert_kernels_match_reference(h: &MinHasher, fp: &Fingerprint) {
        let want = reference_signature(h, fp);
        assert_eq!(h.signature(fp), want, "hashes={} cap={}", h.hashes, h.occurrence_cap);
        let bases = h.feature_bases(fp);
        for kernel in Kernel::supported() {
            let mut sig = vec![u64::MAX; h.hashes];
            kernel.run(&bases, &h.seeds, &mut sig);
            assert_eq!(sig, want, "{kernel:?} hashes={} cap={}", h.hashes, h.occurrence_cap);
        }
    }

    #[test]
    fn lane_chunked_signature_matches_reference() {
        let mut m = Module::new("m");
        let fps = [
            chain_fn(&mut m, "a", 6, 2),
            chain_fn(&mut m, "b", 0, 1),
            chain_fn(&mut m, "c", 40, 17), // over the occurrence cap
            chain_fn(&mut m, "d", 1, 0),
        ];
        // Lengths off the LANES grid (tail loop), on it, and below it.
        for hashes in [1, 7, 8, 9, 16, 128, 130] {
            for cap in [1, 4, 64] {
                let h = MinHasher::new(hashes, cap);
                for fp in &fps {
                    assert_kernels_match_reference(&h, fp);
                }
            }
        }
    }

    #[test]
    fn new_runs_the_fastest_supported_kernel() {
        let kernels = Kernel::supported();
        assert_eq!(MinHasher::new(8, 4).kernel, kernels[0]);
        assert_eq!(kernels.last(), Some(&Kernel::Portable));
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            assert!(kernels.contains(&Kernel::Avx2));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// Random multisets with 0–12 types and counts on both sides of
        /// the occurrence cap, at the index's own length and cap.
        #[test]
        fn every_kernel_matches_reference_on_random_fingerprints(
            ops in prop::collection::vec(0u32..100, Opcode::COUNT..Opcode::COUNT + 1),
            types in prop::collection::vec((0usize..40, 1u32..100), 0..13),
            shape in 0usize..3,
        ) {
            let opcode_freq: [u32; Opcode::COUNT] = ops.as_slice().try_into().expect("COUNT");
            let types: Vec<(TyId, u32)> =
                types.iter().map(|&(k, n)| (TyId::from_index(k), n)).collect();
            let fp = Fingerprint::from_parts(opcode_freq, &types);
            let (hashes, cap) = [(128, 64), (130, 4), (9, 1)][shape];
            assert_kernels_match_reference(&MinHasher::new(hashes, cap), &fp);
        }
    }

    #[test]
    fn empty_fingerprint_is_all_max() {
        let mut m = Module::new("m");
        let fn_ty = m.types.func(m.types.void(), vec![]);
        let f = m.create_function("decl", fn_ty);
        let fp = Fingerprint::of(&m, f);
        let h = MinHasher::new(8, 4);
        assert!(h.signature(&fp).iter().all(|&x| x == u64::MAX));
    }
}
