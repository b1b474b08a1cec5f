//! Trap-equality coverage: merging must preserve *failure* semantics,
//! not just successful results. For each trap class — integer division
//! by zero, out-of-bounds linear-memory access, and `unreachable` — a
//! family of mergeable functions is built, merged, and executed on
//! trapping inputs; the pre- and post-merge interpreters must agree on
//! the exact trap, including its payload (the faulting address and
//! access length for out-of-bounds).

use fmsa_core::Config;
use fmsa_interp::batch::add_memory_driver;
use fmsa_interp::{Interpreter, Trap, Val};
use fmsa_ir::{verify_module, FuncBuilder, Linkage, Module, Value};

/// Pads a builder with a family-shaped arithmetic body so the clones are
/// long (and similar) enough to merge profitably.
fn pad_body(b: &mut FuncBuilder, mut v: Value, salt: i32) -> Value {
    for j in 0..10 {
        v = b.add(v, b.const_i32(j));
        v = b.mul(v, b.const_i32(3));
        v = b.xor(v, b.const_i32(j * 7));
    }
    b.xor(v, b.const_i32(salt))
}

/// `div{k}(x, y)`: arithmetic on `x`, then `sdiv` by `y` — traps
/// [`Trap::DivisionByZero`] when `y == 0`.
fn add_div_family(m: &mut Module, count: usize) {
    let i32t = m.types.i32();
    let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
    for k in 0..count {
        let f = m.create_function(format!("div{k}"), fn_ty);
        m.func_mut(f).linkage = Linkage::External;
        let mut b = FuncBuilder::new(m, f);
        let entry = b.block("entry");
        b.switch_to(entry);
        let v = pad_body(&mut b, Value::Param(0), k as i32 + 11);
        let r = b.sdiv(v, Value::Param(1));
        b.ret(Some(r));
    }
}

/// `unr{k}(x)`: branches to an `unreachable` block when `x == 42`.
fn add_unreachable_family(m: &mut Module, count: usize) {
    let i32t = m.types.i32();
    let fn_ty = m.types.func(i32t, vec![i32t]);
    for k in 0..count {
        let f = m.create_function(format!("unr{k}"), fn_ty);
        m.func_mut(f).linkage = Linkage::External;
        let mut b = FuncBuilder::new(m, f);
        let entry = b.block("entry");
        let dead = b.block("dead");
        let cont = b.block("cont");
        b.switch_to(entry);
        let c42 = b.const_i32(42);
        let cmp = b.icmp(fmsa_ir::IntPredicate::Eq, Value::Param(0), c42);
        b.condbr(cmp, dead, cont);
        b.switch_to(dead);
        b.unreachable();
        b.switch_to(cont);
        let v = pad_body(&mut b, Value::Param(0), k as i32 + 23);
        b.ret(Some(v));
    }
}

/// `oob{k}(mem, idx)`: stores/loads an `i32` at `mem[idx]` — mirrors the
/// wasm lowering's address idiom (`zext` + `gep i8 -> i32`), so an index
/// near the end of the 64 KiB buffer traps [`Trap::OutOfBounds`].
fn add_oob_family(m: &mut Module, count: usize) {
    let i32t = m.types.i32();
    let i8t = m.types.i8();
    let i64t = m.types.i64();
    let memt = m.types.ptr(i8t);
    let fn_ty = m.types.func(i32t, vec![memt, i32t]);
    for k in 0..count {
        let f = m.create_function(format!("oob{k}"), fn_ty);
        m.func_mut(f).linkage = Linkage::External;
        let mut b = FuncBuilder::new(m, f);
        let entry = b.block("entry");
        b.switch_to(entry);
        let v = pad_body(&mut b, Value::Param(1), k as i32 + 37);
        let addr = b.zext(Value::Param(1), i64t);
        let p = b.gep(i8t, Value::Param(0), vec![addr], i32t);
        b.store(v, p);
        let r = b.load(p);
        b.ret(Some(r));
    }
}

/// Builds the module, merges a copy, wires memory drivers onto both, and
/// returns `(pre, post)` ready for differential execution.
fn merged_pair() -> (Module, Module) {
    let mut pre = Module::new("traps");
    add_div_family(&mut pre, 3);
    add_unreachable_family(&mut pre, 3);
    add_oob_family(&mut pre, 3);
    assert!(verify_module(&pre).is_empty());

    let mut post = pre.clone();
    let cfg = Config::new().threshold(5).identical_prepass(false);
    let stats = fmsa_core::optimize(&mut post, &cfg).expect("optimize");
    assert!(stats.merges > 0, "the trap families must merge: {stats:?}");
    assert!(verify_module(&post).is_empty());

    for k in 0..3 {
        let name = format!("oob{k}");
        let a = add_memory_driver(&mut pre, &name);
        let b = add_memory_driver(&mut post, &name);
        assert_eq!(a, b);
    }
    (pre, post)
}

fn run_both(
    pre: &Module,
    post: &Module,
    name: &str,
    args: Vec<Val>,
) -> (Result<Val, Trap>, Result<Val, Trap>) {
    let to_val =
        |r: Result<fmsa_interp::RunResult, Trap>| r.map(|out| out.value.expect("non-void"));
    let r_pre = to_val(Interpreter::new(pre).run(name, args.clone()));
    let r_post = to_val(Interpreter::new(post).run(name, args));
    (r_pre, r_post)
}

#[test]
fn division_by_zero_traps_identically() {
    let (pre, post) = merged_pair();
    for k in 0..3 {
        let name = format!("div{k}");
        let (a, b) = run_both(&pre, &post, &name, vec![Val::i32(17), Val::i32(0)]);
        assert_eq!(a, Err(Trap::DivisionByZero), "{name} pre");
        assert_eq!(a, b, "{name}: pre and post traps agree");
        // Non-trapping inputs still agree on values.
        let (a, b) = run_both(&pre, &post, &name, vec![Val::i32(17), Val::i32(5)]);
        assert!(a.is_ok(), "{name} succeeds on y != 0");
        assert_eq!(a, b, "{name}: results agree");
    }
}

#[test]
fn unreachable_traps_identically() {
    let (pre, post) = merged_pair();
    for k in 0..3 {
        let name = format!("unr{k}");
        let (a, b) = run_both(&pre, &post, &name, vec![Val::i32(42)]);
        assert_eq!(a, Err(Trap::UnreachableExecuted), "{name} pre");
        assert_eq!(a, b, "{name}: pre and post traps agree");
        let (a, b) = run_both(&pre, &post, &name, vec![Val::i32(41)]);
        assert!(a.is_ok(), "{name} succeeds off the dead branch");
        assert_eq!(a, b, "{name}: results agree");
    }
}

#[test]
fn out_of_bounds_traps_identically_with_address() {
    let (pre, post) = merged_pair();
    for k in 0..3 {
        let name = format!("__drive_oob{k}");
        // The interpreter's stack is one bump region checked as a whole,
        // and merged functions may append tiny demoted-slot allocas after
        // the driver's buffer — so probe far past the 64 KiB buffer (and
        // any frame slack) rather than one byte over its edge.
        let (a, b) = run_both(&pre, &post, &name, vec![Val::i32(0x0100_0000)]);
        match &a {
            Err(Trap::OutOfBounds { len, .. }) => assert_eq!(*len, 4, "{name}: i32 access"),
            other => panic!("{name}: expected OutOfBounds, got {other:?}"),
        }
        // The driver's buffer is both modules' first allocation, so even
        // the faulting *address* must match, not just the trap kind.
        assert_eq!(a, b, "{name}: pre and post traps agree exactly");
        let (a, b) = run_both(&pre, &post, &name, vec![Val::i32(1000)]);
        assert!(a.is_ok(), "{name} succeeds in bounds");
        assert_eq!(a, b, "{name}: results agree");
    }
}
