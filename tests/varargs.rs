//! Varargs functions through print → parse → verify → optimize. The
//! printer writes `...` after a varargs function's fixed params, as the
//! type store prints its type; the parser reads it back as a varargs
//! type; the verifier takes extra arguments only for a varargs callee.

use fmsa::core::baselines::run_soa;
use fmsa::core::{merge_pair, MergeConfig, MergeError};
use fmsa::ir::parser::parse_module;
use fmsa::ir::printer::print_module;
use fmsa::ir::{verify_module, FuncBuilder, FuncId, Linkage, Module, Value};
use fmsa::target::TargetArch;
use fmsa::Config;

/// `declare i32 @printf(i8*, ...)` and `declare void @trace(...)`, with
/// `main` calling both with extra arguments.
fn declarations_module() -> Module {
    let mut m = Module::new("varargs");
    let (void, i8t, i32t) = (m.types.void(), m.types.i8(), m.types.i32());
    let i8p = m.types.ptr(i8t);
    let printf_ty = m.types.varargs_func(i32t, vec![i8p]);
    let printf = m.create_function("printf", printf_ty);
    m.func_mut(printf).linkage = Linkage::External;
    let trace_ty = m.types.varargs_func(void, vec![]);
    let trace = m.create_function("trace", trace_ty);
    m.func_mut(trace).linkage = Linkage::External;
    let main_ty = m.types.func(i32t, vec![i8p, i32t]);
    let main = m.create_function("main", main_ty);
    m.func_mut(main).linkage = Linkage::External;
    let mut b = FuncBuilder::new(&mut m, main);
    let entry = b.block("entry");
    b.switch_to(entry);
    let one = b.call(printf, vec![Value::Param(0), Value::Param(1)]);
    let two = b.call(printf, vec![Value::Param(0), one, b.const_i32(7)]);
    b.call(trace, vec![two]);
    b.ret(Some(two));
    m
}

/// `main` with one call of `printf`, passing `args`.
fn printf_call_module(args: impl FnOnce(&mut Module) -> Vec<Value>) -> Module {
    let mut m = Module::new("bad_call");
    let (i8t, i32t) = (m.types.i8(), m.types.i32());
    let i8p = m.types.ptr(i8t);
    let printf_ty = m.types.varargs_func(i32t, vec![i8p]);
    let printf = m.create_function("printf", printf_ty);
    m.func_mut(printf).linkage = Linkage::External;
    let main_ty = m.types.func(i32t, vec![]);
    let main = m.create_function("main", main_ty);
    m.func_mut(main).linkage = Linkage::External;
    let args = args(&mut m);
    let mut b = FuncBuilder::new(&mut m, main);
    let entry = b.block("entry");
    b.switch_to(entry);
    let r = b.call(printf, args);
    b.ret(Some(r));
    m
}

fn fn_ty_text(m: &Module, name: &str) -> String {
    let f = m.func_by_name(name).expect("declared");
    m.types.display(m.func(f).fn_ty())
}

#[test]
fn varargs_calls_verify_and_round_trip() {
    let m = declarations_module();
    assert_eq!(verify_module(&m), vec![]);
    let text = print_module(&m);
    assert!(text.contains("declare i32 @printf(i8* %a0, ...)\n"), "{text}");
    assert!(text.contains("declare void @trace(...)\n"), "{text}");
    let parsed = parse_module(&text).expect("printed text parses");
    assert_eq!(print_module(&parsed), text);
    for name in ["printf", "trace"] {
        assert_eq!(fn_ty_text(&parsed, name), fn_ty_text(&m, name), "@{name}");
    }
    assert_eq!(fn_ty_text(&parsed, "printf"), "i32 (i8*, ...)");
    assert_eq!(verify_module(&parsed), vec![]);
}

#[test]
fn a_varargs_callee_still_checks_its_fixed_params() {
    let none = printf_call_module(|_| vec![]);
    let errs = verify_module(&none);
    assert!(
        errs.iter().any(|e| e.to_string().contains("call passes 0 args, callee expects 1")),
        "{errs:?}"
    );
    let mistyped = printf_call_module(|m| vec![Value::ConstInt { ty: m.types.i32(), bits: 1 }]);
    let errs = verify_module(&mistyped);
    assert!(errs.iter().any(|e| e.to_string().contains("call arg 0 has type i32")), "{errs:?}");
}

#[test]
fn optimize_accepts_varargs_calls() {
    let mut m = declarations_module();
    let before = print_module(&m);
    fmsa::optimize(&mut m, &Config::new()).expect("varargs calls are valid input");
    assert_eq!(print_module(&m), before, "nothing to merge");
}

/// An internal varargs definition `name(i32 %a0, ...)`: a chain of adds
/// with one constant that differs between `log_a` and `log_b`.
fn varargs_definition(m: &mut Module, name: &str, k: i32) -> FuncId {
    let i32t = m.types.i32();
    let fn_ty = m.types.varargs_func(i32t, vec![i32t]);
    let f = m.create_function(name, fn_ty);
    let mut b = FuncBuilder::new(m, f);
    let entry = b.block("entry");
    b.switch_to(entry);
    let mut v = Value::Param(0);
    for j in 0..12 {
        v = b.add(v, b.const_i32(j));
        v = b.mul(v, Value::Param(0));
    }
    v = b.xor(v, b.const_i32(k));
    b.ret(Some(v));
    f
}

/// `main(x) = log_a(log_b(log_a(x, 1, 2.5), 3))`, over two varargs
/// definitions that differ in one constant (or none, when `ka == kb`).
fn varargs_definitions_module(ka: i32, kb: i32) -> Module {
    let mut m = Module::new("varargs_defs");
    let i32t = m.types.i32();
    let log_a = varargs_definition(&mut m, "log_a", ka);
    let log_b = varargs_definition(&mut m, "log_b", kb);
    let main_ty = m.types.func(i32t, vec![i32t]);
    let main = m.create_function("main", main_ty);
    m.func_mut(main).linkage = Linkage::External;
    let mut b = FuncBuilder::new(&mut m, main);
    let entry = b.block("entry");
    b.switch_to(entry);
    let x = b.call(log_a, vec![Value::Param(0), b.const_i32(1), b.const_f64(2.5)]);
    let y = b.call(log_b, vec![x, b.const_i32(3)]);
    let z = b.call(log_a, vec![y]);
    b.ret(Some(z));
    m
}

#[test]
fn varargs_definitions_optimize_to_a_valid_module() {
    // Near-identical definitions would reach the merge pipeline, identical
    // ones the identical-merging prepass. Neither merges a varargs
    // definition: its callers pass arguments that a merged function has
    // no params for.
    for (ka, kb) in [(100, 200), (100, 100)] {
        let m = varargs_definitions_module(ka, kb);
        assert_eq!(verify_module(&m), vec![]);
        let mut merged = m.clone();
        fmsa::optimize(&mut merged, &Config::new().threshold(5)).expect("optimizes");
        assert_eq!(verify_module(&merged), vec![], "k = {ka}, {kb}");
        let text = print_module(&merged);
        assert_eq!(text, print_module(&m), "k = {ka}, {kb}");
        assert_eq!(print_module(&parse_module(&text).expect("output parses")), text);
    }
}

#[test]
fn merge_pair_refuses_varargs_definitions() {
    let mut m = varargs_definitions_module(100, 200);
    let before = print_module(&m);
    let (a, b) = (m.func_by_name("log_a").expect("log_a"), m.func_by_name("log_b").expect("log_b"));
    for (f1, f2) in [(a, b), (b, a)] {
        let got = merge_pair(&mut m, f1, f2, &MergeConfig::default()).map(|info| info.merged);
        assert_eq!(got, Err(MergeError::Varargs));
        assert_eq!(print_module(&m), before, "a refused pair leaves the module as it was");
    }
}

#[test]
fn soa_leaves_varargs_definitions_unmerged() {
    for (ka, kb) in [(100, 200), (100, 100)] {
        let mut m = varargs_definitions_module(ka, kb);
        let stats = run_soa(&mut m, TargetArch::X86_64);
        assert_eq!(stats.merges, 0, "k = {ka}, {kb}");
        assert_eq!(verify_module(&m), vec![], "k = {ka}, {kb}");
    }
}
