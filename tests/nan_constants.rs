//! A NaN constant's sign and payload are observable: `bitcast` exposes
//! them, and wasm `i64.reinterpret_f64` / `i32.reinterpret_f32` lower to
//! it. A merge response, parsed back, must compute the same bits as the
//! module that was uploaded.

use fmsa_core::{Config, MergeSession};
use fmsa_interp::{Interpreter, Val};
use fmsa_ir::parser::parse_module;
use fmsa_ir::{verify_module, FuncBuilder, Linkage, Module, TyId, Value};

/// `name() = bitcast <float constant of type ty with bits> to int_ty`.
fn add_reinterpret(m: &mut Module, name: &str, ty: TyId, bits: u64, int_ty: TyId) {
    let fn_ty = m.types.func(int_ty, vec![]);
    let f = m.create_function(name, fn_ty);
    m.func_mut(f).linkage = Linkage::External;
    let mut b = FuncBuilder::new(m, f);
    let entry = b.block("entry");
    b.switch_to(entry);
    let r = b.bitcast(Value::ConstFloat { ty, bits }, int_ty);
    b.ret(Some(r));
}

fn run(m: &Module, name: &str) -> Val {
    Interpreter::new(m).run(name, vec![]).expect("runs").value.expect("returns a value")
}

#[test]
fn merge_response_keeps_nan_bits() {
    let mut m = Module::new("nans");
    let (f32t, f64t, i32t, i64t) = (m.types.f32(), m.types.f64(), m.types.i32(), m.types.i64());
    let cases = [
        ("neg_nan_f64", f64t, 0xfff8_0000_0000_0000u64, i64t),
        ("payload_nan_f64", f64t, 0x7ff8_0000_0000_0001, i64t),
        ("signaling_nan_f64", f64t, 0x7ff0_0000_0000_0001, i64t),
        ("neg_nan_f32", f32t, 0xffc0_0000, i32t),
        ("payload_nan_f32", f32t, 0x7fc0_0001, i32t),
        ("signaling_nan_f32", f32t, 0x7f80_0001, i32t),
    ];
    for (name, ty, bits, int_ty) in cases {
        add_reinterpret(&mut m, name, ty, bits, int_ty);
    }
    assert!(verify_module(&m).is_empty());

    let mut session = MergeSession::new(Config::new());
    let outcome = session.merge_module(m.clone(), None).expect("merges");
    let back = parse_module(&outcome.output).expect("response parses");
    for (name, _, bits, _) in cases {
        let want = run(&m, name);
        let Val::Int { bits: got_bits, .. } = want else { panic!("{name}: {want:?}") };
        assert_eq!(got_bits, bits, "{name}: the input computes its constant's bits");
        assert_eq!(run(&back, name), want, "{name}: the parsed response computes other bits");
    }
}
