//! Golden test of the textual printer: one module that uses every printed
//! form, compared against literal expected text. The store keys functions
//! by a hash of their printed text, so any byte drift in the printer turns
//! store hits into misses; this test pins the bytes.

use fmsa_ir::parser::parse_module;
use fmsa_ir::printer::{print_function, print_module};
use fmsa_ir::{
    FloatPredicate, FuncBuilder, Inst, IntPredicate, LandingPadClause, Linkage, Module, Opcode,
    Value,
};

fn golden_module() -> Module {
    let mut m = Module::new("golden");
    let void = m.types.void();
    let i8t = m.types.i8();
    let i32t = m.types.i32();
    let i64t = m.types.i64();
    let f32t = m.types.f32();
    let f64t = m.types.f64();
    let i8p = m.types.ptr(i8t);
    let pair = m.types.struct_(vec![i32t, f64t]);
    let pair_p = m.types.ptr(pair);
    let packed = m.types.packed_struct(vec![i8t, i32t]);
    let arr = m.types.array(i32t, 4);
    let bytes2 = m.types.array(i8t, 2);
    let i64p = m.types.ptr(i64t);
    let nested = m.types.struct_(vec![bytes2, i64p]);
    let printf_ty = m.types.varargs_func(i32t, vec![i8p]);
    let printf_p = m.types.ptr(printf_ty);
    let bare_varargs = m.types.varargs_func(void, vec![]);
    let bare_varargs_p = m.types.ptr(bare_varargs);

    // Declarations: external and internal.
    let printf = m.create_function("printf", printf_ty);
    m.func_mut(printf).linkage = Linkage::External;
    let sink_ty = m.types.func(void, vec![i32t]);
    let sink = m.create_function("sink", sink_ty);
    let thrower_ty = m.types.func(i32t, vec![i32t]);
    let thrower = m.create_function("may_throw", thrower_ty);
    m.func_mut(thrower).linkage = Linkage::External;

    // An external definition using every opcode family.
    let kitchen_ty = m.types.func(i32t, vec![i32t, f64t, pair_p]);
    let kitchen = m.create_function("kitchen", kitchen_ty);
    m.func_mut(kitchen).linkage = Linkage::External;
    {
        let mut b = FuncBuilder::new(&mut m, kitchen);
        let entry = b.block("entry");
        let left = b.block("");
        let right = b.block("right");
        let join = b.block("");
        let cont = b.block("cont");
        let lpad = b.block("lpad");
        let dead = b.block("");
        b.switch_to(entry);
        let slot = b.alloca(arr);
        let _packed_slot = b.alloca(packed);
        let _nested_slot = b.alloca(nested);
        let _printf_slot = b.alloca(printf_p);
        let _bare_slot = b.alloca(bare_varargs_p);
        let zero = b.const_i64(0);
        let elem = b.gep(arr, slot, vec![zero, Value::Param(0)], i32t);
        b.store(Value::Param(0), elem);
        let loaded = b.load(elem);
        let wide = b.sext(loaded, i64t);
        let back = b.trunc(wide, i32t);
        let as_float = b.sitofp(back, f64t);
        let narrow = b.fptrunc(as_float, f32t);
        let _f = b.fadd(narrow, b.const_f32(1.5));
        let _g = b.fmul(narrow, b.const_f32(f32::NAN));
        let sum = b.fadd(Value::Param(1), b.const_f64(-0.0));
        let big = b.fmul(sum, b.const_f64(f64::INFINITY));
        let _tiny = b.fdiv(big, b.const_f64(1e-7));
        let _nan = b.fsub(big, b.const_f64(f64::NAN));
        let _ninf = b.fsub(big, b.const_f64(f64::NEG_INFINITY));
        let unordered = b.fcmp(FloatPredicate::Uno, Value::Param(1), b.const_f64(2.5));
        let neg = b.add(back, b.const_i32(-5));
        let neg64 = b.add(wide, b.const_i64(-1));
        let _z = b.zext(unordered, i32t);
        let raw = b.bitcast(Value::Param(2), i8p);
        let _isnull = b.icmp(IntPredicate::Eq, raw, Value::ConstNull(i8p));
        let _u = b.add(neg, Value::Undef(i32t));
        let _w = b.trunc(neg64, i8t);
        let cmp = b.icmp(IntPredicate::Slt, neg, b.const_i32(10));
        b.condbr(cmp, left, right);
        b.switch_to(left);
        b.call(sink, vec![neg]);
        b.br(join);
        b.switch_to(right);
        let agg = b.load(Value::Param(2));
        let field = b.extract_value(agg, vec![0], i32t);
        let agg2 = b.insert_value(agg, b.const_i32(7), vec![0]);
        b.store(agg2, Value::Param(2));
        b.switch(field, join, vec![(b.const_i32(1), left), (b.const_i32(2), dead)]);
        b.switch_to(join);
        let merged = b.phi(i32t, vec![(neg, left), (field, right), (b.const_i32(3), entry)]);
        let r = b.invoke(thrower, vec![merged], cont, lpad);
        b.switch_to(cont);
        let fmt = b.bitcast(Value::Param(2), i8p);
        let printed = b.call(printf, vec![fmt, r]);
        b.ret(Some(printed));
        b.switch_to(lpad);
        let exn = b.landingpad(
            vec![
                LandingPadClause::Catch("typeinfo_int".to_owned()),
                LandingPadClause::Filter(vec!["ti_a".to_owned(), "ti_b".to_owned()]),
            ],
            true,
        );
        b.resume(exn);
        b.switch_to(dead);
        b.unreachable();
    }

    // An internal definition: `ret void`, a void call, `select`, and a
    // landing pad with only a catch clause.
    let helper_ty = m.types.func(void, vec![i32t]);
    let helper = m.create_function("helper", helper_ty);
    {
        let mut b = FuncBuilder::new(&mut m, helper);
        let entry = b.block("");
        let ok = b.block("ok");
        let pad = b.block("pad");
        b.switch_to(entry);
        let c = b.icmp(IntPredicate::Ne, Value::Param(0), b.const_i32(0));
        let s = b.select(c, Value::Param(0), b.const_i32(1));
        b.invoke(sink, vec![s], ok, pad);
        b.switch_to(ok);
        b.ret(None);
        b.switch_to(pad);
        let exn = b.landingpad(vec![LandingPadClause::Catch("typeinfo_int".to_owned())], false);
        b.resume(exn);
    }

    // A void call whose result is not named, appended by hand.
    let caller_ty = m.types.func(void, vec![]);
    let caller = m.create_function("caller", caller_ty);
    let entry = m.func_mut(caller).add_block("entry");
    let seven = Value::ConstInt { ty: i32t, bits: 7 };
    m.func_mut(caller)
        .append_inst(entry, Inst::new(Opcode::Call, void, vec![Value::Func(helper), seven]));
    m.func_mut(caller).append_inst(entry, Inst::new(Opcode::Ret, void, vec![]));
    m
}

const GOLDEN: &str = concat!(
    r#"; module golden

declare i32 @printf(i8* %a0, ...)

declare internal void @sink(i32 %a0)

declare i32 @may_throw(i32 %a0)

define i32 @kitchen(i32 %a0, double %a1, { i32, double }* %a2) {
entry.0:
  %v0 = alloca [4 x i32]
  %v1 = alloca <{ i8, i32 }>
  %v2 = alloca { [2 x i8], i64* }
  %v3 = alloca i32 (i8*, ...)*
  %v4 = alloca void (...)*
  %v5 = getelementptr [4 x i32] -> i32*, [4 x i32]* %v0, i64 0, i32 %a0
  store i32 %a0, i32* %v5
  %v7 = load i32* %v5
  %v8 = sext i32 %v7 to i64
  %v9 = trunc i64 %v8 to i32
  %v10 = sitofp i32 %v9 to double
  %v11 = fptrunc double %v10 to float
  %v12 = fadd float %v11, float 1.5
  %v13 = fmul float %v11, float NaN
  %v14 = fadd double %a1, double -0.0
  %v15 = fmul double %v14, double inf
  %v16 = fdiv double %v15, double 1e-7
  %v17 = fsub double %v15, double NaN
  %v18 = fsub double %v15, double -inf
  %v19 = fcmp uno double %a1, double 2.5
  %v20 = add i32 %v9, i32 4294967291
  %v21 = add i64 %v8, i64 -1
  %v22 = zext i1 %v19 to i32
  %v23 = bitcast { i32, double }* %a2 to i8*
  %v24 = icmp eq i8* %v23, i8* null
  %v25 = add i32 %v20, i32 undef
  %v26 = trunc i64 %v21 to i8
  %v27 = icmp slt i32 %v20, i32 10
  condbr i1 %v27, label %bb1, label %right.2
bb1:
  call void @sink(i32 %v20)
  br label %bb3
right.2:
  %v31 = load { i32, double }* %a2
  %v32 = extractvalue { i32, double } %v31, [0]
  %v33 = insertvalue { i32, double } %v31, i32 7, [0]
  store { i32, double } %v33, { i32, double }* %a2
  switch i32 %v32, label %bb3, i32 1, label %bb1, i32 2, label %bb6
bb3:
  %v36 = phi i32 [ i32 %v20, %bb1 ], [ i32 %v32, %right.2 ], [ i32 3, %entry.0 ]
  %v37 = invoke i32 @may_throw(i32 %v36) to label %cont.4 unwind label %lpad.5
cont.4:
  %v38 = bitcast { i32, double }* %a2 to i8*
  %v39 = call i32 @printf(i8* %v38, i32 %v37)
  ret i32 %v39
lpad.5:
  %v41 = landingpad { i8*, i32 } cleanup catch @typeinfo_int filter [ti_a, ti_b]
  resume { i8*, i32 } %v41
bb6:
  unreachable "#,
    // `unreachable` has no operands; its line keeps a trailing space.
    r#"
}

define internal void @helper(i32 %a0) {
bb0:
  %v0 = icmp ne i32 %a0, i32 0
  %v1 = select i1 %v0, i32 %a0, i32 1
  invoke void @sink(i32 %v1) to label %ok.1 unwind label %pad.2
ok.1:
  ret void
pad.2:
  %v4 = landingpad { i8*, i32 } catch @typeinfo_int
  resume { i8*, i32 } %v4
}

define internal void @caller() {
entry.0:
  call void @helper(i32 7)
  ret void
}
"#
);

#[test]
fn printer_output_is_pinned() {
    let m = golden_module();
    assert_eq!(print_module(&m), GOLDEN);
    // `print_function` is the same text, function by function.
    let per_function: String =
        m.func_ids().iter().map(|&f| format!("\n{}", print_function(&m, m.func(f)))).collect();
    assert_eq!(format!("; module golden\n{per_function}"), GOLDEN);
}

#[test]
fn golden_module_round_trips() {
    let text = print_module(&golden_module());
    let parsed = parse_module(&text).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(print_module(&parsed), text);
}
