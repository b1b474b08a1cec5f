//! Cross-crate test of the indexed call-graph update
//! (`fmsa_core::thunks::commit_merge_indexed`, the pipeline's commit):
//! for caller-heavy modules with thunked sides, mixed return types
//! (call-site cast chains), shared callers, and merged bodies that are
//! themselves callers, rewriting only the indexed callers must produce
//! output identical to the full-scan `commit_merge`.

use fmsa::core::callsites::CallSiteIndex;
use fmsa::core::merge::{merge_pair, MergeConfig};
use fmsa::core::thunks::{commit_merge, commit_merge_indexed, CommitResult};
use fmsa::ir::printer::print_module;
use fmsa::ir::{FuncBuilder, FuncId, Linkage, Module, Opcode, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a module of `families` mergeable pairs plus `callers` functions
/// calling family members 0–3 times each. Members randomly get external
/// linkage (thunk path), a taken address, or an `i64` return reached by a
/// final `zext` (so rewritten call sites need a trunc-back cast chain).
/// With `cross_calls`, the first member of a family may call its merge
/// partner (the merged body then carries rewritable call sites of the
/// second side) or a neighbouring family's first member (merge sides that
/// are themselves touched callers).
fn caller_heavy_module(
    seed: u64,
    families: usize,
    callers: usize,
    cross_calls: bool,
) -> (Module, Vec<(FuncId, FuncId)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Module::new("rewrite-plan");
    let i32t = m.types.i32();
    let i64t = m.types.i64();
    let fn_ty32 = m.types.func(i32t, vec![i32t]);
    let fn_ty64 = m.types.func(i64t, vec![i32t]);
    // Pass 1: declare every family member (bodies need forward targets).
    let mut members: Vec<[(FuncId, bool); 2]> = Vec::new();
    for k in 0..families {
        let mut fam = [(FuncId::from_index(0), false); 2];
        for (side, slot) in fam.iter_mut().enumerate() {
            let wide = side == 1 && rng.gen_bool(0.3);
            let f =
                m.create_function(format!("fam{k}_{side}"), if wide { fn_ty64 } else { fn_ty32 });
            if rng.gen_bool(0.25) {
                m.func_mut(f).linkage = Linkage::External;
            }
            if rng.gen_bool(0.15) {
                m.func_mut(f).address_taken = true;
            }
            *slot = (f, wide);
        }
        members.push(fam);
    }
    // Pass 2: fill the bodies.
    for k in 0..families {
        for side in 0..2 {
            let (f, wide) = members[k][side];
            let xor_const = if side == 0 { 3 } else { 5 };
            let mut b = FuncBuilder::new(&mut m, f);
            let e = b.block("entry");
            b.switch_to(e);
            let mut v = Value::Param(0);
            for j in 0..8i32 {
                v = b.mul(v, b.const_i32(j + 2));
                v = b.xor(v, b.const_i32(xor_const + k as i32));
            }
            if cross_calls && side == 0 {
                if rng.gen_bool(0.4) {
                    // Call the merge partner: the merged body keeps this
                    // call, making it a caller of the second side.
                    let (partner, pwide) = members[k][1];
                    let r = b.call(partner, vec![v]);
                    let r = if pwide { b.cast(Opcode::Trunc, r, i32t) } else { r };
                    v = b.xor(v, r);
                }
                if rng.gen_bool(0.4) {
                    // Call a neighbouring family: merge sides double as
                    // callers rewritten by earlier commits.
                    let (other, _) = members[(k + 1) % families][0];
                    if other != f {
                        let r = b.call(other, vec![v]);
                        v = b.xor(v, r);
                    }
                }
            }
            if wide {
                v = b.cast(Opcode::ZExt, v, i64t);
            }
            b.ret(Some(v));
        }
    }
    // Pass 3: callers (never merge subjects themselves).
    for c in 0..callers {
        let f = m.create_function(format!("caller{c}"), fn_ty32);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let mut v = Value::Param(0);
        for _ in 0..rng.gen_range(0..4usize) {
            let fam = rng.gen_range(0..families);
            let (g, wide) = members[fam][rng.gen_range(0..2usize)];
            let r = b.call(g, vec![v]);
            v = if wide { b.cast(Opcode::Trunc, r, i32t) } else { r };
        }
        b.ret(Some(v));
    }
    let pairs = members.iter().map(|fam| (fam[0].0, fam[1].0)).collect();
    (m, pairs)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Merge by merge, committing through the call-site index must be
    /// bit-identical to the full-scan `commit_merge`, for any module
    /// shape.
    #[test]
    fn indexed_commit_matches_full_scan_commit(seed in 0u64..10_000) {
        let (base, pairs) = caller_heavy_module(seed, 4, 6, true);
        let config = MergeConfig::default();
        let mut serial = base.clone();
        let mut serial_results: Vec<CommitResult> = Vec::new();
        for &(a, b) in &pairs {
            let Ok(info) = merge_pair(&mut serial, a, b, &config) else { continue };
            serial_results.push(commit_merge(&mut serial, &info).expect("serial commit"));
        }
        let mut indexed = base.clone();
        let mut indexed_results: Vec<CommitResult> = Vec::new();
        for &(a, b) in &pairs {
            // Index over committed state only, as the pipeline maintains
            // it (built before the merged function exists).
            let sites = CallSiteIndex::build(&indexed);
            let Ok(info) = merge_pair(&mut indexed, a, b, &config) else { continue };
            indexed_results.push(
                commit_merge_indexed(&mut indexed, &info, &sites).expect("indexed commit"),
            );
        }
        prop_assert_eq!(&serial_results, &indexed_results);
        prop_assert_eq!(print_module(&serial), print_module(&indexed));
        prop_assert!(fmsa::ir::verify_module(&indexed).is_empty());
    }
}
