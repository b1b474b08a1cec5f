//! Property-based differential testing of the whole merger: generate
//! random function pairs from every clone-family kind, merge them, and
//! require the retired entry points (thunks) to behave bit-identically to
//! the originals on a grid of inputs.
//!
//! This is the repository's strongest correctness evidence: it exercises
//! alignment, parameter merging, return-type merging, two-pass codegen,
//! select insertion, label selectors, SSA repair, thunks, and call-site
//! rewriting together against the interpreter as an oracle.

use fmsa::core::merge::{merge_pair, MergeConfig};
use fmsa::core::thunks::commit_merge;
use fmsa::interp::{Interpreter, Val};
use fmsa::ir::{Linkage, Module};
use fmsa::workloads::{generate_function, GenConfig, Variant};
use proptest::prelude::*;

fn variant_strategy() -> impl Strategy<Value = Variant> {
    prop_oneof![
        Just(Variant::exact()),
        (1u64..50).prop_map(Variant::body),
        prop_oneof![
            Just(Variant::typed(true, false)),
            Just(Variant::typed(false, true)),
            Just(Variant::typed(true, true)),
        ],
        (1u64..50).prop_map(Variant::cfg),
        (1u64..50).prop_map(Variant::sig),
    ]
}

/// Synthesizes a deterministic argument list for `name` from a salt.
fn args_for(m: &Module, name: &str, salt: i64) -> Vec<Val> {
    let f = m.func_by_name(name).expect("function exists");
    m.func(f)
        .params()
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let v = salt + k as i64 * 3;
            if m.types.is_float(p.ty) {
                if m.types.display(p.ty) == "float" {
                    Val::F32(v as f32 * 0.5)
                } else {
                    Val::F64(v as f64 * 0.5)
                }
            } else if m.types.int_width(p.ty) == Some(64) {
                Val::i64(v)
            } else {
                Val::i32(v as i32)
            }
        })
        .collect()
}

fn observe(m: &Module, name: &str, salt: i64) -> Result<(Option<Val>, Vec<String>), String> {
    let mut interp = Interpreter::new(m);
    interp.set_fuel(2_000_000);
    match interp.run(name, args_for(m, name, salt)) {
        Ok(r) => Ok((r.value, r.output)),
        Err(t) => Err(t.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn merged_pairs_preserve_behaviour(
        seed in 0u64..10_000,
        variant in variant_strategy(),
        size in 20usize..90,
    ) {
        let mut m = Module::new("prop");
        let cfg = GenConfig { target_size: size, ..GenConfig::default() };
        let fa = generate_function(&mut m, "fa", seed, &cfg, &Variant::exact());
        let fb = generate_function(&mut m, "fb", seed, &cfg, &variant);
        prop_assert!(fmsa_ir::verify_module(&m).is_empty());
        // Keep both entry points callable after the merge.
        m.func_mut(fa).linkage = Linkage::External;
        m.func_mut(fb).linkage = Linkage::External;

        let before: Vec<_> = (-2..3)
            .flat_map(|salt| {
                ["fa", "fb"].map(|n| ((n, salt), observe(&m, n, salt)))
            })
            .collect();

        let mut merged = m.clone();
        let info = merge_pair(&mut merged, fa, fb, &MergeConfig::default());
        let info = match info {
            Ok(i) => i,
            // Some pairs legitimately cannot merge (e.g. incompatible
            // aggregate returns); that is not a failure.
            Err(fmsa::core::MergeError::IncompatibleReturns) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("merge failed: {e}"))),
        };
        commit_merge(&mut merged, &info).expect("commit succeeds");
        let errs = fmsa_ir::verify_module(&merged);
        prop_assert!(errs.is_empty(), "merged module invalid: {errs:?}");

        for ((name, salt), expect) in before {
            let got = observe(&merged, name, salt);
            match (&expect, &got) {
                (Ok((ev, eo)), Ok((gv, go))) => {
                    let veq = match (ev, gv) {
                        (Some(x), Some(y)) => x.bit_eq(y),
                        (None, None) => true,
                        _ => false,
                    };
                    prop_assert!(
                        veq && eo == go,
                        "{name}(salt={salt}) diverged: {expect:?} vs {got:?}"
                    );
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                _ => prop_assert!(false, "{name}(salt={salt}): {expect:?} vs {got:?}"),
            }
        }
    }

    #[test]
    fn whole_pass_preserves_behaviour(seed in 0u64..2_000) {
        use fmsa::Config;
        let mut m = Module::new("prop-pass");
        let cfg = GenConfig { target_size: 40, ..GenConfig::default() };
        // A few shared-seed families plus singletons.
        let names: Vec<String> = (0..6).map(|k| format!("f{k}")).collect();
        for (k, name) in names.iter().enumerate() {
            let fam_seed = seed + (k as u64 / 2); // pairs share seeds
            let variant = if k % 2 == 0 { Variant::exact() } else { Variant::body(seed % 31) };
            let f = generate_function(&mut m, name, fam_seed, &cfg, &variant);
            m.func_mut(f).linkage = Linkage::External; // keep callable
        }
        let before: Vec<_> =
            names.iter().map(|n| (n.clone(), observe(&m, n, 1))).collect();
        let cfg = Config::new().threshold(5).identical_prepass(false);
        fmsa::optimize(&mut m, &cfg).expect("optimize");
        let errs = fmsa_ir::verify_module(&m);
        prop_assert!(errs.is_empty(), "after pass: {errs:?}");
        for (name, expect) in before {
            let got = observe(&m, &name, 1);
            match (&expect, &got) {
                (Ok((ev, eo)), Ok((gv, go))) => {
                    let veq = match (ev, gv) {
                        (Some(x), Some(y)) => x.bit_eq(y),
                        (None, None) => true,
                        _ => false,
                    };
                    prop_assert!(veq && eo == go, "{name}: {expect:?} vs {got:?}");
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                _ => prop_assert!(false, "{name}: {expect:?} vs {got:?}"),
            }
        }
    }
}
