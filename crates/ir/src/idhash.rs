//! A fast hasher for maps keyed by ids the program assigns.
//!
//! [`IdHasher`] folds each word into its state with one rotate, one xor
//! and one multiply (the FxHash construction). That is several times
//! cheaper than the standard library's SipHash, and deterministic, but it
//! gives no protection against keys chosen to collide: anyone who picks
//! the keys can pick many with one hash and turn each lookup into a scan.
//!
//! The rule: use [`IdHashMap`]/[`IdHashSet`] only where every key is a
//! [`crate::FuncId`] or [`crate::BlockId`] the program handed out (or a
//! tuple of them). Ids are dense arena indices, so no input can choose
//! them. Anything keyed by module content — constants, names, type
//! structure, interned key words, content hashes — keeps the standard
//! `RandomState`, because a merge service hashes words its uploaders
//! choose.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of FxHash (an odd 64-bit constant with well-spread
/// bits).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher for program-assigned ids; see the module docs
/// for where it may be used.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed by program-assigned ids, hashed with [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of program-assigned ids, hashed with [`IdHasher`].
pub type IdHashSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlockId, FuncId};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(x: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(x)
    }

    #[test]
    fn hashes_are_deterministic_and_tell_ids_apart() {
        assert_eq!(hash_of(FuncId::from_index(7)), hash_of(FuncId::from_index(7)));
        let ids: HashSet<u64> = (0..10_000).map(|i| hash_of(FuncId::from_index(i))).collect();
        assert_eq!(ids.len(), 10_000);
        let (a, b) = (FuncId::from_index(1), FuncId::from_index(2));
        assert_ne!(hash_of((a, b)), hash_of((b, a)));
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut m: IdHashMap<BlockId, u32> = IdHashMap::default();
        let mut s: IdHashSet<(FuncId, FuncId)> = IdHashSet::default();
        for i in 0..1_000 {
            *m.entry(BlockId::from_index(i % 100)).or_insert(0) += 1;
            s.insert((FuncId::from_index(i % 10), FuncId::from_index(i % 7)));
        }
        assert_eq!(m.len(), 100);
        assert!(m.values().all(|&n| n == 10));
        assert_eq!(s.len(), 70);
    }
}
