//! The future-work extension end to end: canonical instruction reordering
//! (paper §VII — "allowing instruction reordering to maximize the number
//! of matches") lets FMSA fully align clones whose blocks compute the same
//! operations in a different textual order.

use fmsa_core::merge::{merge_pair, MergeConfig};
use fmsa_core::Config;
use fmsa_interp::{Interpreter, Val};
use fmsa_ir::{passes, Linkage, Module};
use fmsa_workloads::{generate_function, GenConfig, Variant};

/// Builds an exact clone pair, then legally permutes one side's
/// instruction order by running the canonicalizer on it (any
/// dependency-respecting permutation is a valid scramble).
fn reordered_pair() -> (Module, fmsa_ir::FuncId, fmsa_ir::FuncId) {
    let mut m = Module::new("reorder");
    let cfg = GenConfig { target_size: 60, branchiness: 10, ..GenConfig::default() };
    let fa = generate_function(&mut m, "fa", 555, &cfg, &Variant::exact());
    let fb = generate_function(&mut m, "fb", 555, &cfg, &Variant::exact());
    // Scramble fb: the canonical order is a legal but different order.
    let changed = passes::canonicalize_block_order(m.func_mut(fb));
    assert!(changed > 0, "scramble must change something");
    assert!(fmsa_ir::verify_module(&m).is_empty());
    (m, fa, fb)
}

fn args_for(m: &Module, name: &str) -> Vec<Val> {
    let f = m.func_by_name(name).expect("exists");
    m.func(f)
        .params()
        .iter()
        .map(|p| {
            if m.types.is_float(p.ty) {
                if m.types.display(p.ty) == "float" {
                    Val::F32(1.25)
                } else {
                    Val::F64(1.25)
                }
            } else if m.types.int_width(p.ty) == Some(64) {
                Val::i64(9)
            } else {
                Val::i32(9)
            }
        })
        .collect()
}

#[test]
fn scrambling_preserves_behaviour() {
    let (m, _, _) = reordered_pair();
    let a = Interpreter::new(&m).run("fa", args_for(&m, "fa")).expect("fa runs");
    let b = Interpreter::new(&m).run("fb", args_for(&m, "fb")).expect("fb runs");
    match (&a.value, &b.value) {
        (Some(x), Some(y)) => assert!(x.bit_eq(y), "{a:?} vs {b:?}"),
        (None, None) => {}
        _ => panic!("{a:?} vs {b:?}"),
    }
}

#[test]
fn canonicalization_recovers_matches() {
    let (m, fa, fb) = reordered_pair();
    // Without canonicalization: the reordered body costs matches.
    let mut plain = m.clone();
    let info_plain = merge_pair(&mut plain, fa, fb, &MergeConfig::default()).expect("plain merges");
    // With canonicalization applied to both sides first.
    let mut canon = m.clone();
    passes::canonicalize_block_order(canon.func_mut(fa));
    passes::canonicalize_block_order(canon.func_mut(fb));
    let info_canon = merge_pair(&mut canon, fa, fb, &MergeConfig::default()).expect("canon merges");
    assert!(
        info_canon.matches > info_plain.matches,
        "canonicalization should recover matches: {} vs {}",
        info_canon.matches,
        info_plain.matches
    );
    assert_eq!(
        info_canon.matches, info_canon.alignment_len,
        "canonicalized exact clones align perfectly"
    );
}

#[test]
fn pass_option_merges_reordered_clones_and_preserves_behaviour() {
    let (mut m, fa, fb) = reordered_pair();
    m.func_mut(fa).linkage = Linkage::External;
    m.func_mut(fb).linkage = Linkage::External;
    let before_a = Interpreter::new(&m).run("fa", args_for(&m, "fa")).expect("runs");
    let cfg = Config::new().threshold(5).canonicalize(true).identical_prepass(false);
    let stats = fmsa_core::optimize(&mut m, &cfg).expect("optimize");
    assert_eq!(stats.merges, 1, "{stats:?}");
    assert!(fmsa_ir::verify_module(&m).is_empty());
    let after_a = Interpreter::new(&m).run("fa", args_for(&m, "fa")).expect("runs");
    match (&before_a.value, &after_a.value) {
        (Some(x), Some(y)) => assert!(x.bit_eq(y)),
        (None, None) => {}
        _ => panic!("{before_a:?} vs {after_a:?}"),
    }
}
