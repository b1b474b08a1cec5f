//! Differential correctness tests: for every merging scenario of §III-E
//! ("identical functions, functions with differing bodies, ... different
//! parameter lists, ... different return types, and any combination"),
//! merge a pair, then check that calling the retired originals (as thunks
//! or through rewritten call sites) behaves bit-identically to the
//! pre-merge module on a grid of inputs.

use fmsa_core::merge::{merge_pair, MergeConfig};
use fmsa_core::thunks::commit_merge;
use fmsa_interp::{execute, Val};
use fmsa_ir::{FuncBuilder, FuncId, IntPredicate, Linkage, Module, Value};

/// Merges `f1`/`f2` in a clone of `module`, commits with thunks (external
/// linkage so both originals stay callable), and compares `name(args)`
/// behaviour before and after.
fn assert_equivalent_after_merge(module: &Module, names: [&str; 2], inputs: &[Vec<Val>]) {
    let mut merged_mod = module.clone();
    let f1 = merged_mod.func_by_name(names[0]).expect("f1 exists");
    let f2 = merged_mod.func_by_name(names[1]).expect("f2 exists");
    // Keep the originals callable as thunks.
    merged_mod.func_mut(f1).linkage = Linkage::External;
    merged_mod.func_mut(f2).linkage = Linkage::External;
    let info =
        merge_pair(&mut merged_mod, f1, f2, &MergeConfig::default()).expect("pair should merge");
    commit_merge(&mut merged_mod, &info).expect("commit succeeds");
    let errs = fmsa_ir::verify_module(&merged_mod);
    assert!(errs.is_empty(), "merged module invalid: {errs:?}");
    for name in names {
        for args in inputs {
            let before = execute(module, name, args.clone());
            let after = execute(&merged_mod, name, args.clone());
            match (&before, &after) {
                (Ok(b), Ok(a)) => {
                    let vals_eq = match (&b.value, &a.value) {
                        (Some(x), Some(y)) => x.bit_eq(y),
                        (None, None) => true,
                        _ => false,
                    };
                    assert!(
                        vals_eq && b.output == a.output,
                        "{name}({args:?}): before={b:?} after={a:?}"
                    );
                }
                (Err(b), Err(a)) => assert_eq!(b, a, "{name}({args:?}) traps differ"),
                _ => panic!("{name}({args:?}): before={before:?} after={after:?}"),
            }
        }
    }
}

fn i32_inputs() -> Vec<Vec<Val>> {
    [-7, -1, 0, 1, 5, 42, 1000].iter().map(|&x| vec![Val::i32(x)]).collect()
}

#[test]
fn identical_functions() {
    let mut m = Module::new("m");
    let i32t = m.types.i32();
    let fn_ty = m.types.func(i32t, vec![i32t]);
    for name in ["ida", "idb"] {
        let f = m.create_function(name, fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let v = b.mul(Value::Param(0), b.const_i32(3));
        let w = b.add(v, b.const_i32(11));
        b.ret(Some(w));
    }
    assert_equivalent_after_merge(&m, ["ida", "idb"], &i32_inputs());
}

#[test]
fn differing_constant() {
    let mut m = Module::new("m");
    let i32t = m.types.i32();
    let fn_ty = m.types.func(i32t, vec![i32t]);
    for (name, c) in [("ca", 5), ("cb", 9)] {
        let f = m.create_function(name, fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let mut v = Value::Param(0);
        for k in 0..6 {
            v = b.add(v, b.const_i32(k));
            v = b.xor(v, b.const_i32(3));
        }
        let w = b.mul(v, b.const_i32(c));
        b.ret(Some(w));
    }
    assert_equivalent_after_merge(&m, ["ca", "cb"], &i32_inputs());
}

/// Fig. 1 analogue: same body except the stored type (f32 vs f64) and a
/// different parameter list.
#[test]
fn sphinx_style_type_variants() {
    let mut m = Module::new("m");
    let i64t = m.types.i64();
    let f32t = m.types.f32();
    let f64t = m.types.f64();
    let p8 = m.types.ptr(m.types.i8());
    let malloc_ty = m.types.func(p8, vec![i64t]);
    let malloc = m.create_function("mymalloc", malloc_ty);
    // glist_add_float32(val: f32) -> i64 (returns the node address)
    {
        let p32 = m.types.ptr(f32t);
        let fn_ty = m.types.func(i64t, vec![f32t]);
        let f = m.create_function("glist_add_float32", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let raw = b.call(malloc, vec![b.const_i64(16)]);
        let slot = b.bitcast(raw, p32);
        b.store(Value::Param(0), slot);
        let addr = b.cast(fmsa_ir::Opcode::PtrToInt, raw, i64t);
        b.ret(Some(addr));
    }
    // glist_add_float64(val: f64) -> i64
    {
        let p64 = m.types.ptr(f64t);
        let fn_ty = m.types.func(i64t, vec![f64t]);
        let f = m.create_function("glist_add_float64", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let raw = b.call(malloc, vec![b.const_i64(16)]);
        let slot = b.bitcast(raw, p64);
        b.store(Value::Param(0), slot);
        let addr = b.cast(fmsa_ir::Opcode::PtrToInt, raw, i64t);
        b.ret(Some(addr));
    }
    let inputs32 = vec![vec![Val::F32(1.5)], vec![Val::F32(-0.25)]];
    let inputs64 = vec![vec![Val::F64(2.75)], vec![Val::F64(1e9)]];
    // Run each function on its own inputs.
    let mut merged_mod = m.clone();
    let f1 = merged_mod.func_by_name("glist_add_float32").expect("exists");
    let f2 = merged_mod.func_by_name("glist_add_float64").expect("exists");
    merged_mod.func_mut(f1).linkage = Linkage::External;
    merged_mod.func_mut(f2).linkage = Linkage::External;
    let info =
        merge_pair(&mut merged_mod, f1, f2, &MergeConfig::default()).expect("pair should merge");
    assert!(info.has_func_id, "bodies store through different widths");
    commit_merge(&mut merged_mod, &info).expect("commit succeeds");
    assert!(fmsa_ir::verify_module(&merged_mod).is_empty());
    for (name, inputs) in [("glist_add_float32", &inputs32), ("glist_add_float64", &inputs64)] {
        for args in inputs {
            let before = execute(&m, name, args.clone()).expect("original runs");
            let after = execute(&merged_mod, name, args.clone()).expect("merged runs");
            assert_eq!(before.value, after.value, "{name}({args:?})");
        }
    }
}

/// Fig. 2 analogue: one function has an extra guarded early-exit block —
/// different CFGs, same signature.
#[test]
fn libquantum_style_extra_block() {
    let mut m = Module::new("m");
    let i32t = m.types.i32();
    let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
    // Common tail: loop-free computation over both params.
    let build_tail = |b: &mut FuncBuilder<'_>, sign: i32| {
        let mut v = Value::Param(0);
        for k in 1..6 {
            v = b.mul(v, Value::Param(1));
            v = b.add(v, b.const_i32(k * sign));
        }
        v
    };
    {
        let f = m.create_function("cond_phase_inv", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let v = build_tail(&mut b, -1);
        b.ret(Some(v));
    }
    {
        let f = m.create_function("cond_phase", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        let early = b.block("early");
        let cont = b.block("cont");
        b.switch_to(e);
        let zero = b.icmp(IntPredicate::Eq, Value::Param(0), b.const_i32(0));
        b.condbr(zero, early, cont);
        b.switch_to(early);
        b.ret(Some(b.const_i32(-1)));
        b.switch_to(cont);
        let v = build_tail(&mut b, 1);
        b.ret(Some(v));
    }
    let inputs: Vec<Vec<Val>> = [(0, 0), (1, 2), (3, -4), (7, 7), (100, 3)]
        .iter()
        .map(|&(a, b)| vec![Val::i32(a), Val::i32(b)])
        .collect();
    assert_equivalent_after_merge(&m, ["cond_phase_inv", "cond_phase"], &inputs);
}

#[test]
fn different_return_types() {
    let mut m = Module::new("m");
    let i32t = m.types.i32();
    let i64t = m.types.i64();
    {
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let f = m.create_function("r32", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let mut v = Value::Param(0);
        for k in 0..5 {
            v = b.add(v, b.const_i32(k));
            v = b.mul(v, b.const_i32(3));
        }
        b.ret(Some(v));
    }
    {
        let fn_ty = m.types.func(i64t, vec![i32t]);
        let f = m.create_function("r64", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let mut v = Value::Param(0);
        for k in 0..5 {
            v = b.add(v, b.const_i32(k));
            v = b.mul(v, b.const_i32(3));
        }
        let w = b.sext(v, i64t);
        b.ret(Some(w));
    }
    assert_equivalent_after_merge(&m, ["r32", "r64"], &i32_inputs());
}

#[test]
fn void_and_value_returning() {
    let mut m = Module::new("m");
    let i32t = m.types.i32();
    let void = m.types.void();
    let print_ty = m.types.func(void, vec![i32t]);
    let print = m.create_function("print_i32", print_ty);
    {
        let fn_ty = m.types.func(void, vec![i32t]);
        let f = m.create_function("log_it", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let v = b.mul(Value::Param(0), b.const_i32(2));
        b.call(print, vec![v]);
        b.ret(None);
    }
    {
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let f = m.create_function("log_and_get", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let v = b.mul(Value::Param(0), b.const_i32(2));
        b.call(print, vec![v]);
        b.ret(Some(v));
    }
    assert_equivalent_after_merge(&m, ["log_it", "log_and_get"], &i32_inputs());
}

#[test]
fn different_parameter_orders() {
    let mut m = Module::new("m");
    let i32t = m.types.i32();
    let f64t = m.types.f64();
    {
        let fn_ty = m.types.func(f64t, vec![i32t, f64t]);
        let f = m.create_function("mix_a", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let x = b.sitofp(Value::Param(0), f64t);
        let y = b.fmul(x, Value::Param(1));
        let z = b.fadd(y, b.const_f64(1.0));
        b.ret(Some(z));
    }
    {
        let fn_ty = m.types.func(f64t, vec![f64t, i32t]);
        let f = m.create_function("mix_b", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let x = b.sitofp(Value::Param(1), f64t);
        let y = b.fmul(x, Value::Param(0));
        let z = b.fadd(y, b.const_f64(1.0));
        b.ret(Some(z));
    }
    let inputs_a = vec![vec![Val::i32(3), Val::F64(2.5)], vec![Val::i32(-1), Val::F64(0.5)]];
    let inputs_b = vec![vec![Val::F64(2.5), Val::i32(3)], vec![Val::F64(0.5), Val::i32(-1)]];
    let mut merged_mod = m.clone();
    let f1 = merged_mod.func_by_name("mix_a").expect("exists");
    let f2 = merged_mod.func_by_name("mix_b").expect("exists");
    merged_mod.func_mut(f1).linkage = Linkage::External;
    merged_mod.func_mut(f2).linkage = Linkage::External;
    let info =
        merge_pair(&mut merged_mod, f1, f2, &MergeConfig::default()).expect("pair should merge");
    commit_merge(&mut merged_mod, &info).expect("commit succeeds");
    assert!(fmsa_ir::verify_module(&merged_mod).is_empty());
    for (name, inputs) in [("mix_a", &inputs_a), ("mix_b", &inputs_b)] {
        for args in inputs {
            let before = execute(&m, name, args.clone()).expect("original runs");
            let after = execute(&merged_mod, name, args.clone()).expect("merged runs");
            assert!(
                before.value.as_ref().unwrap().bit_eq(after.value.as_ref().unwrap()),
                "{name}({args:?}): {before:?} vs {after:?}"
            );
        }
    }
}

#[test]
fn loops_with_differing_bodies() {
    let mut m = Module::new("m");
    let i32t = m.types.i32();
    let fn_ty = m.types.func(i32t, vec![i32t]);
    for (name, step) in [("sum_up", 1), ("sum_up2", 2)] {
        let f = m.create_function(name, fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(e);
        let acc = b.alloca(i32t);
        let i = b.alloca(i32t);
        b.store(b.const_i32(0), acc);
        b.store(b.const_i32(0), i);
        b.br(header);
        b.switch_to(header);
        let iv = b.load(i);
        let c = b.icmp(IntPredicate::Slt, iv, Value::Param(0));
        b.condbr(c, body, exit);
        b.switch_to(body);
        let av = b.load(acc);
        let sum = b.add(av, iv);
        b.store(sum, acc);
        let inc = b.add(iv, b.const_i32(step));
        b.store(inc, i);
        b.br(header);
        b.switch_to(exit);
        let r = b.load(acc);
        b.ret(Some(r));
    }
    let inputs: Vec<Vec<Val>> = [0, 1, 5, 10, 33].iter().map(|&x| vec![Val::i32(x)]).collect();
    assert_equivalent_after_merge(&m, ["sum_up", "sum_up2"], &inputs);
}

#[test]
fn call_sites_rewritten_when_deletable() {
    // Internal originals get deleted; a caller must transparently use the
    // merged function.
    let mut m = Module::new("m");
    let i32t = m.types.i32();
    let fn_ty = m.types.func(i32t, vec![i32t]);
    for (name, c) in [("wa", 3), ("wb", 4)] {
        let f = m.create_function(name, fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let mut v = Value::Param(0);
        for k in 0..6 {
            v = b.mul(v, b.const_i32(k + 2));
            v = b.xor(v, b.const_i32(c));
        }
        b.ret(Some(v));
    }
    let main_ty = m.types.func(i32t, vec![i32t]);
    let main = m.create_function("main", main_ty);
    {
        let wa = m.func_by_name("wa").expect("exists");
        let wb = m.func_by_name("wb").expect("exists");
        let mut b = FuncBuilder::new(&mut m, main);
        let e = b.block("entry");
        b.switch_to(e);
        let x = b.call(wa, vec![Value::Param(0)]);
        let y = b.call(wb, vec![x]);
        b.ret(Some(y));
    }
    let before: Vec<_> =
        i32_inputs().iter().map(|args| execute(&m, "main", args.clone()).expect("runs")).collect();
    let wa = m.func_by_name("wa").expect("exists");
    let wb = m.func_by_name("wb").expect("exists");
    let info = merge_pair(&mut m, wa, wb, &MergeConfig::default()).expect("pair should merge");
    let commit = commit_merge(&mut m, &info).expect("commit succeeds");
    assert_eq!(commit.first, fmsa_core::thunks::Disposition::Deleted);
    assert_eq!(commit.second, fmsa_core::thunks::Disposition::Deleted);
    assert!(!m.is_live(wa) && !m.is_live(wb));
    assert!(fmsa_ir::verify_module(&m).is_empty(), "{:?}", fmsa_ir::verify_module(&m));
    for (args, exp) in i32_inputs().iter().zip(before) {
        let after = execute(&m, "main", args.clone()).expect("runs");
        assert_eq!(after.value, exp.value, "main({args:?})");
    }
}

#[test]
fn recursive_functions_merge() {
    let mut m = Module::new("m");
    let i32t = m.types.i32();
    let fn_ty = m.types.func(i32t, vec![i32t]);
    // Two recursive functions with the same shape but different base value.
    for (name, base) in [("reca", 1), ("recb", 2)] {
        let f = m.create_function(name, fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        let stop = b.block("stop");
        let go = b.block("go");
        b.switch_to(e);
        let c = b.icmp(IntPredicate::Sle, Value::Param(0), b.const_i32(0));
        b.condbr(c, stop, go);
        b.switch_to(stop);
        b.ret(Some(b.const_i32(base)));
        b.switch_to(go);
        let n1 = b.sub(Value::Param(0), b.const_i32(1));
        let r = b.call(f, vec![n1]);
        let s = b.add(r, Value::Param(0));
        b.ret(Some(s));
    }
    // NOTE: recursive self-calls differ (reca calls reca, recb calls recb)
    // so those call instructions land in divergent chains; after deletion
    // the chains call the merged function via rewritten call sites.
    let inputs: Vec<Vec<Val>> = [0, 1, 2, 5, 9].iter().map(|&x| vec![Val::i32(x)]).collect();
    let before_a: Vec<_> =
        inputs.iter().map(|a| execute(&m, "reca", a.clone()).expect("runs").value).collect();
    let before_b: Vec<_> =
        inputs.iter().map(|a| execute(&m, "recb", a.clone()).expect("runs").value).collect();
    let fa = m.func_by_name("reca").expect("exists");
    let fb = m.func_by_name("recb").expect("exists");
    let info = merge_pair(&mut m, fa, fb, &MergeConfig::default()).expect("pair should merge");
    let merged_name = m.func(info.merged).name.clone();
    commit_merge(&mut m, &info).expect("commit succeeds");
    assert!(fmsa_ir::verify_module(&m).is_empty(), "{:?}", fmsa_ir::verify_module(&m));
    // Call through the merged function directly with the right func_id.
    let merged = m.func_by_name(&merged_name).expect("merged exists");
    let nparams = m.func(merged).params().len();
    for (k, args) in inputs.iter().enumerate() {
        for (first, expect) in [(true, &before_a[k]), (false, &before_b[k])] {
            let mut full = vec![Val::bool(first)];
            full.extend(args.clone());
            while full.len() < nparams {
                full.push(Val::i32(0));
            }
            let got =
                fmsa_interp::Interpreter::new(&m).run_func(merged, full).expect("merged runs");
            assert_eq!(&got.value, expect, "side={first} args={args:?}");
        }
    }
}

#[test]
fn fmsa_options_end_to_end_equivalence() {
    // Whole-pass check: run the FMSA driver over a module of callers and
    // callees, then compare observable behaviour of the entry point.
    use fmsa_core::Config;
    let mut m = Module::new("m");
    let i32t = m.types.i32();
    let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
    for (name, c) in [("ka", 17), ("kb", 19), ("kc", 23)] {
        let f = m.create_function(name, fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let mut v = Value::Param(0);
        for k in 0..8 {
            v = b.add(v, Value::Param(1));
            v = b.mul(v, b.const_i32(k + 1));
        }
        v = b.xor(v, b.const_i32(c));
        b.ret(Some(v));
    }
    let main_ty = m.types.func(i32t, vec![i32t]);
    let main = m.create_function("main", main_ty);
    {
        let (ka, kb, kc) = (
            m.func_by_name("ka").expect("ka"),
            m.func_by_name("kb").expect("kb"),
            m.func_by_name("kc").expect("kc"),
        );
        let mut b = FuncBuilder::new(&mut m, main);
        let e = b.block("entry");
        b.switch_to(e);
        let x = b.call(ka, vec![Value::Param(0), b.const_i32(2)]);
        let y = b.call(kb, vec![x, b.const_i32(3)]);
        let z = b.call(kc, vec![y, x]);
        b.ret(Some(z));
    }
    let inputs = i32_inputs();
    let before: Vec<_> =
        inputs.iter().map(|a| execute(&m, "main", a.clone()).expect("runs").value).collect();
    let cfg = Config::new().threshold(10).exclude(["main"]).identical_prepass(false);
    let stats = fmsa_core::optimize(&mut m, &cfg).expect("optimize");
    assert!(stats.merges >= 1, "{stats:?}");
    assert!(fmsa_ir::verify_module(&m).is_empty(), "{:?}", fmsa_ir::verify_module(&m));
    for (args, exp) in inputs.iter().zip(before) {
        let after = execute(&m, "main", args.clone()).expect("runs");
        assert_eq!(after.value, exp, "main({args:?})");
    }
}

/// Helper used by a few tests that need direct access to FuncIds.
#[allow(dead_code)]
fn func(m: &Module, name: &str) -> FuncId {
    m.func_by_name(name).expect("function exists")
}
