//! Function fingerprints and the similarity estimate (paper §IV).
//!
//! "The fingerprint consists of: (1) a map of instruction opcodes to their
//! frequency in the function; (2) the set of types manipulated by the
//! function." Similarity is the minimum of two optimistic upper bounds:
//!
//! ```text
//! UB(f1,f2,K) = Σ_k min(freq(k,f1), freq(k,f2))
//!             / Σ_k freq(k,f1) + freq(k,f2)
//!
//! s(f1,f2)    = min(UB(Opcodes), UB(Types))   ∈ [0, 0.5]
//! ```
//!
//! Identical functions score exactly 0.5.
//!
//! The type multiset is kept as `(TyId, count)` pairs sorted by `TyId`,
//! each type once ([`Fingerprint::type_freqs`] yields them in that
//! ascending order), so `UB(Types)` is one merge of two sorted slices.

use fmsa_ir::{FuncId, Module, Opcode, TyId, Value};
use std::cmp::Ordering;

/// A lightweight summary of one function used to rank merge candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    opcode_freq: [u32; Opcode::COUNT],
    /// The type multiset: each type once with its count, sorted by
    /// `TyId` (see the module docs).
    type_freq: Vec<(TyId, u32)>,
    /// Precomputed `Σ type_freq` so [`Fingerprint::type_upper_bound`] does
    /// not re-sum both multisets on every comparison (the ranking hot path
    /// evaluates it O(n·t) times per pass).
    type_total: u64,
    size: u32,
}

impl Fingerprint {
    /// Computes the fingerprint of `func`.
    pub fn of(module: &Module, func: FuncId) -> Fingerprint {
        let f = module.func(func);
        let mut opcode_freq = [0u32; Opcode::COUNT];
        let mut type_freq: Vec<(TyId, u32)> = Vec::new();
        for (_, inst) in f.iter_insts() {
            opcode_freq[inst.opcode.index()] += 1;
            add_type(&mut type_freq, inst.ty, 1);
            for &op in &inst.operands {
                if !matches!(op, Value::Block(_) | Value::Func(_)) {
                    add_type(&mut type_freq, f.value_ty(op, &module.types), 1);
                }
            }
        }
        let type_total = type_freq.iter().map(|&(_, n)| u64::from(n)).sum();
        Fingerprint { opcode_freq, type_freq, type_total, size: f.inst_count() as u32 }
    }

    /// A fingerprint with the given opcode counts and `(type, count)`
    /// occurrences (a type may repeat; counts add), for tests that need
    /// multisets no small function produces.
    #[cfg(test)]
    pub(crate) fn from_parts(opcode_freq: [u32; Opcode::COUNT], types: &[(TyId, u32)]) -> Self {
        let mut type_freq = Vec::new();
        for &(ty, n) in types {
            add_type(&mut type_freq, ty, n);
        }
        let type_total = type_freq.iter().map(|&(_, n)| u64::from(n)).sum();
        Fingerprint { opcode_freq, type_freq, type_total, size: opcode_freq.iter().sum() }
    }

    /// Number of instructions summarized.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Frequency of one opcode.
    pub fn opcode_count(&self, op: Opcode) -> u32 {
        self.opcode_freq[op.index()]
    }

    /// The opcode-frequency vector, indexed by [`Opcode::index`].
    pub fn opcode_freqs(&self) -> &[u32; Opcode::COUNT] {
        &self.opcode_freq
    }

    /// The type-frequency multiset: each type once, in ascending `TyId`
    /// order, with a count of at least one.
    pub fn type_freqs(&self) -> impl Iterator<Item = (TyId, u32)> + '_ {
        self.type_freq.iter().copied()
    }

    /// Total number of type occurrences (`Σ type_freq`), precomputed.
    pub fn type_total(&self) -> u64 {
        self.type_total
    }

    /// The opcode-frequency upper bound `UB(f1, f2, Opcodes)`.
    pub fn opcode_upper_bound(&self, other: &Fingerprint) -> f64 {
        let mut inter = 0u64;
        let mut total = 0u64;
        for k in 0..Opcode::COUNT {
            let (a, b) = (self.opcode_freq[k] as u64, other.opcode_freq[k] as u64);
            inter += a.min(b);
            total += a + b;
        }
        ratio(inter, total)
    }

    /// The type-frequency upper bound `UB(f1, f2, Types)`: one merge of
    /// the two sorted multisets, where only shared types add to the
    /// intersection.
    pub fn type_upper_bound(&self, other: &Fingerprint) -> f64 {
        let (a, b) = (&self.type_freq, &other.type_freq);
        let (mut i, mut j, mut inter) = (0, 0, 0u64);
        while let (Some(&(ta, na)), Some(&(tb, nb))) = (a.get(i), b.get(j)) {
            match ta.cmp(&tb) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    inter += u64::from(na.min(nb));
                    i += 1;
                    j += 1;
                }
            }
        }
        ratio(inter, self.type_total + other.type_total)
    }

    /// The paper's similarity estimate
    /// `s(f1,f2) = min(UB(Opcodes), UB(Types))`, in `[0, 0.5]`.
    pub fn similarity(&self, other: &Fingerprint) -> f64 {
        self.opcode_upper_bound(other).min(self.type_upper_bound(other))
    }
}

/// Adds `n` occurrences of `ty` to a sorted type multiset. A function
/// uses few distinct types, so a binary search of the vector beats
/// hashing each occurrence.
fn add_type(type_freq: &mut Vec<(TyId, u32)>, ty: TyId, n: u32) {
    match type_freq.binary_search_by_key(&ty, |&(t, _)| t) {
        Ok(k) => type_freq[k].1 += n,
        Err(k) => type_freq.insert(k, (ty, n)),
    }
}

/// Shared by both upper bounds so they agree on the degenerate case: two
/// empty multisets are trivially identical and score the maximum 0.5.
/// (Previously `type_upper_bound` forced `total = 1` and returned 0.0 for
/// the same inputs `opcode_upper_bound` scored 0.5, so the similarity of
/// two empty functions depended on which bound the `min` picked.)
fn ratio(inter: u64, total: u64) -> f64 {
    if total == 0 {
        return 0.5;
    }
    inter as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmsa_ir::FuncBuilder;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn simple_fn(m: &mut Module, name: &str, float: bool) -> FuncId {
        let ty = if float { m.types.f64() } else { m.types.i32() };
        let fn_ty = m.types.func(ty, vec![ty, ty]);
        let f = m.create_function(name, fn_ty);
        let mut b = FuncBuilder::new(m, f);
        let entry = b.block("entry");
        b.switch_to(entry);
        let v = if float {
            b.fadd(Value::Param(0), Value::Param(1))
        } else {
            b.add(Value::Param(0), Value::Param(1))
        };
        let w = if float { b.fmul(v, Value::Param(0)) } else { b.mul(v, Value::Param(0)) };
        b.ret(Some(w));
        f
    }

    #[test]
    fn identical_functions_score_half() {
        let mut m = Module::new("m");
        let a = simple_fn(&mut m, "a", false);
        let b = simple_fn(&mut m, "b", false);
        let fa = Fingerprint::of(&m, a);
        let fb = Fingerprint::of(&m, b);
        assert!((fa.similarity(&fb) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn similarity_is_symmetric_and_bounded() {
        let mut m = Module::new("m");
        let a = simple_fn(&mut m, "a", false);
        let b = simple_fn(&mut m, "b", true);
        let fa = Fingerprint::of(&m, a);
        let fb = Fingerprint::of(&m, b);
        let s_ab = fa.similarity(&fb);
        let s_ba = fb.similarity(&fa);
        assert!((s_ab - s_ba).abs() < 1e-12);
        assert!((0.0..=0.5).contains(&s_ab));
    }

    #[test]
    fn type_bound_separates_int_from_float_twins() {
        // Same opcode shape would be misleading; the type bound must pull
        // the similarity down (this is why the estimate takes the min).
        let mut m = Module::new("m");
        let a = simple_fn(&mut m, "a", false);
        let b = simple_fn(&mut m, "b", true);
        let fa = Fingerprint::of(&m, a);
        let fb = Fingerprint::of(&m, b);
        // add/mul vs fadd/fmul also differ in opcodes; check both bounds.
        assert!(fa.opcode_upper_bound(&fb) < 0.5);
        assert!(fa.type_upper_bound(&fb) < 0.5);
        assert!(fa.similarity(&fb) < 0.25);
    }

    #[test]
    fn disjoint_functions_score_low() {
        let mut m = Module::new("m");
        let a = simple_fn(&mut m, "a", false);
        let void = m.types.void();
        let fn_ty = m.types.func(void, vec![]);
        let g = m.create_function("g", fn_ty);
        let mut b = FuncBuilder::new(&mut m, g);
        let entry = b.block("entry");
        b.switch_to(entry);
        b.ret(None);
        let fa = Fingerprint::of(&m, a);
        let fg = Fingerprint::of(&m, g);
        // Only `ret` is shared, and type sets barely overlap.
        assert!(fa.similarity(&fg) < 0.2);
    }

    #[test]
    fn empty_functions_agree_on_both_bounds() {
        // Regression: two declarations (empty bodies) must score 0.5 from
        // *both* upper bounds — the type bound used to return 0.0 while the
        // opcode bound returned 0.5.
        let mut m = Module::new("m");
        let void = m.types.void();
        let fn_ty = m.types.func(void, vec![]);
        let a = m.create_function("a", fn_ty);
        let b = m.create_function("b", fn_ty);
        let fa = Fingerprint::of(&m, a);
        let fb = Fingerprint::of(&m, b);
        assert_eq!(fa.opcode_upper_bound(&fb), 0.5);
        assert_eq!(fa.type_upper_bound(&fb), 0.5);
        assert_eq!(fa.similarity(&fb), 0.5);
    }

    #[test]
    fn type_total_matches_freshly_summed_map() {
        let mut m = Module::new("m");
        let a = simple_fn(&mut m, "a", false);
        let fa = Fingerprint::of(&m, a);
        let summed: u64 = fa.type_freqs().map(|(_, n)| n as u64).sum();
        assert_eq!(fa.type_total(), summed);
        assert!(fa.type_total() > 0);
    }

    #[test]
    fn fingerprint_counts_opcodes() {
        let mut m = Module::new("m");
        let a = simple_fn(&mut m, "a", false);
        let fa = Fingerprint::of(&m, a);
        assert_eq!(fa.opcode_count(fmsa_ir::Opcode::Add), 1);
        assert_eq!(fa.opcode_count(fmsa_ir::Opcode::Mul), 1);
        assert_eq!(fa.opcode_count(fmsa_ir::Opcode::Ret), 1);
        assert_eq!(fa.opcode_count(fmsa_ir::Opcode::FAdd), 0);
        assert_eq!(fa.size(), 3);
    }

    /// The type multiset as it was kept before the sorted vector: a
    /// `HashMap`, with `type_upper_bound` verbatim. The sorted merge must
    /// give the same integers, so the same `f64`s, and therefore the same
    /// ranking and logged similarity.
    struct HashTypes {
        type_freq: HashMap<TyId, u32>,
        type_total: u64,
    }

    impl HashTypes {
        fn new(types: &[(TyId, u32)]) -> HashTypes {
            let mut type_freq: HashMap<TyId, u32> = HashMap::new();
            for &(ty, n) in types {
                *type_freq.entry(ty).or_insert(0) += n;
            }
            let type_total = type_freq.values().map(|&v| v as u64).sum();
            HashTypes { type_freq, type_total }
        }

        fn type_upper_bound(&self, other: &HashTypes) -> f64 {
            let mut inter = 0u64;
            let total = self.type_total + other.type_total;
            // Iterate the smaller map; intersection only needs shared keys.
            let (small, big) = if self.type_freq.len() <= other.type_freq.len() {
                (&self.type_freq, &other.type_freq)
            } else {
                (&other.type_freq, &self.type_freq)
            };
            for (ty, &a) in small {
                if let Some(&b) = big.get(ty) {
                    inter += (a as u64).min(b as u64);
                }
            }
            ratio(inter, total)
        }
    }

    /// Opcode counts and 0–12 `(type, count)` occurrences over a sparse
    /// set of type ids, a type possibly repeated.
    fn multiset() -> impl Strategy<Value = (Vec<u32>, Vec<(usize, u32)>)> {
        (
            prop::collection::vec(0u32..4, Opcode::COUNT..Opcode::COUNT + 1),
            prop::collection::vec((0usize..12, 1u32..6), 0..13),
        )
    }

    fn both(
        (ops, types): &(Vec<u32>, Vec<(usize, u32)>),
    ) -> (Fingerprint, HashTypes, Vec<(TyId, u32)>) {
        let opcode_freq: [u32; Opcode::COUNT] = ops.as_slice().try_into().expect("COUNT opcodes");
        let types: Vec<(TyId, u32)> =
            types.iter().map(|&(k, n)| (TyId::from_index(k * 37 % 101), n)).collect();
        (Fingerprint::from_parts(opcode_freq, &types), HashTypes::new(&types), types)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn sorted_type_merge_matches_hash_map_reference(a in multiset(), b in multiset()) {
            let (fa, ha, types_a) = both(&a);
            let (fb, hb, _) = both(&b);
            prop_assert_eq!(fa.type_total(), ha.type_total);
            prop_assert_eq!(fa.type_upper_bound(&fb).to_bits(), ha.type_upper_bound(&hb).to_bits());
            prop_assert_eq!(fb.type_upper_bound(&fa).to_bits(), hb.type_upper_bound(&ha).to_bits());
            // `similarity` is `min(UB(Opcodes), UB(Types))`; the opcode
            // half did not change.
            let reference = |f: &Fingerprint, g: &Fingerprint, hf: &HashTypes, hg: &HashTypes| {
                f.opcode_upper_bound(g).min(hf.type_upper_bound(hg))
            };
            prop_assert_eq!(fa.similarity(&fb).to_bits(), reference(&fa, &fb, &ha, &hb).to_bits());
            prop_assert_eq!(fa.similarity(&fa).to_bits(), reference(&fa, &fa, &ha, &ha).to_bits());
            // Each type once, ascending, with the summed count.
            let freqs: Vec<(TyId, u32)> = fa.type_freqs().collect();
            prop_assert!(freqs.windows(2).all(|w| w[0].0 < w[1].0), "not ascending: {freqs:?}");
            prop_assert_eq!(freqs.len(), ha.type_freq.len());
            for (ty, n) in freqs {
                prop_assert_eq!(Some(&n), ha.type_freq.get(&ty));
            }
            prop_assert_eq!(types_a.is_empty(), fa.type_freqs().next().is_none());
        }
    }
}
