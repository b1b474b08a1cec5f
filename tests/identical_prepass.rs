//! The identical prepass folds through a call-site index; this keeps the
//! full-scan fold it replaced as a reference and checks that both leave
//! the same module and the same statistics. The reference visits every
//! function of the module on each fold (`rewrite_call_sites`), so it
//! cannot miss a caller the index forgot.

use fmsa_core::baselines::identical::{structural_hash, structurally_equal};
use fmsa_core::baselines::{run_identical, IdenticalStats};
use fmsa_core::thunks::{can_delete, make_thunk, rewrite_call_sites, CallRewrite};
use fmsa_ir::printer::print_module;
use fmsa_ir::{verify_module, FuncBuilder, FuncId, Linkage, Module, Value};
use fmsa_target::{CostModel, TargetArch};
use fmsa_workloads::spec_suite;
use std::collections::HashMap;

/// The prepass as it was before the call-site index: same buckets, same
/// fold order, every rewrite a full scan of the module.
fn full_scan_identical(module: &mut Module, arch: TargetArch) -> IdenticalStats {
    let cm = CostModel::new(arch);
    let mut stats =
        IdenticalStats { size_before: cm.module_size(module), ..IdenticalStats::default() };
    let mut buckets: HashMap<u64, Vec<FuncId>> = HashMap::new();
    for f in module.func_ids() {
        if !module.func(f).is_declaration() {
            buckets.entry(structural_hash(module, f)).or_default().push(f);
        }
    }
    let mut hashes: Vec<u64> = buckets.keys().copied().collect();
    hashes.sort_unstable();
    for h in hashes {
        let mut representatives: Vec<FuncId> = Vec::new();
        for &f in &buckets[&h] {
            match representatives.iter().find(|&&r| structurally_equal(module, r, f)) {
                Some(&rep) => {
                    let ret = module.func(f).ret_ty(&module.types);
                    let rw = CallRewrite {
                        target: rep,
                        merged_param_tys: module.func(rep).params().iter().map(|p| p.ty).collect(),
                        map: (0..module.func(f).params().len()).collect(),
                        func_id: None,
                        ret_base: ret,
                        ret_orig: ret,
                    };
                    if can_delete(module, f) {
                        rewrite_call_sites(module, f, &rw).expect("identity rewrite");
                        module.remove_function(f);
                    } else {
                        make_thunk(module, f, &rw).expect("identity thunk");
                    }
                    stats.merges += 1;
                }
                None => representatives.push(f),
            }
        }
    }
    stats.size_after = cm.module_size(module);
    stats
}

/// Runs both folds on copies of `module` and requires the same printed
/// module and the same statistics. Returns the fold count.
fn assert_same_as_full_scan(module: &Module) -> usize {
    let mut indexed = module.clone();
    let mut reference = module.clone();
    let got = run_identical(&mut indexed, TargetArch::X86_64);
    let want = full_scan_identical(&mut reference, TargetArch::X86_64);
    assert_eq!(got, want, "{}", module.name);
    assert!(print_module(&indexed) == print_module(&reference), "{}: output differs", module.name);
    assert!(verify_module(&indexed).is_empty(), "{}", module.name);
    got.merges
}

#[test]
fn indexed_fold_matches_full_scan_on_suite_modules() {
    for name in ["483.xalancbmk", "447.dealII"] {
        for seed in [1, 2001] {
            let mut desc = spec_suite().into_iter().find(|d| d.name == name).expect(name);
            desc.seed = seed;
            let folds = assert_same_as_full_scan(&desc.build());
            assert!(folds > 0, "{name} at seed {seed} has duplicates to fold");
        }
    }
}

/// `name(x) = callee(x * salt) + salt`, or `x * salt + salt` without a
/// callee.
fn add_body(m: &mut Module, name: &str, callee: Option<FuncId>, salt: i32) -> FuncId {
    let i32t = m.types.i32();
    let fn_ty = m.types.func(i32t, vec![i32t]);
    let f = m.create_function(name, fn_ty);
    let mut b = FuncBuilder::new(m, f);
    let entry = b.block("entry");
    b.switch_to(entry);
    let mut v = b.mul(Value::Param(0), b.const_i32(salt));
    if let Some(callee) = callee {
        v = b.call(callee, vec![v]);
    }
    let r = b.add(v, b.const_i32(salt));
    b.ret(Some(r));
    f
}

/// Declares `name(i32) -> i32`; [`fill_caller`] gives it a body.
fn declare(m: &mut Module, name: &str) -> FuncId {
    let i32t = m.types.i32();
    let fn_ty = m.types.func(i32t, vec![i32t]);
    m.create_function(name, fn_ty)
}

/// Makes `f(x) = callee(x) + 1`; `callee` may be `f` itself.
fn fill_caller(m: &mut Module, f: FuncId, callee: FuncId) {
    let mut b = FuncBuilder::new(m, f);
    let entry = b.block("entry");
    b.switch_to(entry);
    let v = b.call(callee, vec![Value::Param(0)]);
    let r = b.add(v, b.const_i32(1));
    b.ret(Some(r));
}

fn add_caller(m: &mut Module, name: &str, callee: FuncId) -> FuncId {
    let f = declare(m, name);
    fill_caller(m, f, callee);
    f
}

#[test]
fn indexed_fold_matches_full_scan_on_crafted_call_graphs() {
    let mut m = Module::new("crafted");
    let mut later_callee = 0;
    for k in 0..8 {
        let salt = 10 + k;
        // A duplicate called by other duplicates: `dup_a` folds onto
        // `rep_a`, and `calls_dup_{0,1}` (duplicates of each other) call it.
        let _rep_a = add_body(&mut m, &format!("rep_a{k}"), None, salt);
        let dup_a = add_body(&mut m, &format!("dup_a{k}"), None, salt);
        add_body(&mut m, &format!("calls_dup_0_{k}"), Some(dup_a), salt + 100);
        add_body(&mut m, &format!("calls_dup_1_{k}"), Some(dup_a), salt + 100);

        // A recursive duplicate: `rec_dup` calls itself and `rec_rep`
        // calls `rec_dup`, so both bodies are equal; folding `rec_dup`
        // leaves `rec_rep` calling itself.
        let rec_rep = declare(&mut m, &format!("rec_rep{k}"));
        let rec_dup = declare(&mut m, &format!("rec_dup{k}"));
        fill_caller(&mut m, rec_rep, rec_dup);
        fill_caller(&mut m, rec_dup, rec_dup);

        // An external duplicate that others call: it becomes a thunk and
        // its callers keep calling it.
        add_body(&mut m, &format!("ext_rep{k}"), None, salt + 200);
        let ext_dup = add_body(&mut m, &format!("ext_dup{k}"), None, salt + 200);
        m.func_mut(ext_dup).linkage = Linkage::External;
        add_caller(&mut m, &format!("calls_ext{k}"), ext_dup);

        // An address-taken duplicate: also a thunk.
        add_body(&mut m, &format!("addr_rep{k}"), None, salt + 300);
        let addr_dup = add_body(&mut m, &format!("addr_dup{k}"), None, salt + 300);
        m.func_mut(addr_dup).address_taken = true;
        add_caller(&mut m, &format!("calls_addr{k}"), addr_dup);

        // A group whose representative calls a duplicate of another
        // group: `grp_rep` and `grp_dup` both call `late_dup`.
        add_body(&mut m, &format!("late_rep{k}"), None, salt + 400);
        let late_dup = add_body(&mut m, &format!("late_dup{k}"), None, salt + 400);
        let grp_rep = add_body(&mut m, &format!("grp_rep{k}"), Some(late_dup), salt + 500);
        add_body(&mut m, &format!("grp_dup{k}"), Some(late_dup), salt + 500);
        // Buckets fold in ascending hash order: count the variants where
        // the group folds before the duplicate it calls.
        if structural_hash(&m, grp_rep) < structural_hash(&m, late_dup) {
            later_callee += 1;
        }
    }
    assert!(later_callee > 0, "no representative calls a duplicate folded later");
    assert!(verify_module(&m).is_empty());
    let folds = assert_same_as_full_scan(&m);
    assert_eq!(folds, 8 * 7, "every duplicate folds");
}
