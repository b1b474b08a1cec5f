//! Quickstart: build two similar functions, run the FMSA pass, and inspect
//! the merged output.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use fmsa::interp::{execute, Val};
use fmsa::ir::{printer, FuncBuilder, Module, Value};
use fmsa::Config;

fn main() {
    // 1. Build a module with two near-identical functions: polynomial
    //    evaluators that differ in a single coefficient.
    let mut module = Module::new("quickstart");
    let i32t = module.types.i32();
    let fn_ty = module.types.func(i32t, vec![i32t, i32t]);
    for (name, coeff) in [("poly_a", 3), ("poly_b", 5)] {
        let f = module.create_function(name, fn_ty);
        let mut b = FuncBuilder::new(&mut module, f);
        let entry = b.block("entry");
        b.switch_to(entry);
        let mut acc = Value::Param(0);
        for k in 1..8 {
            acc = b.mul(acc, Value::Param(1));
            acc = b.add(acc, b.const_i32(k));
        }
        acc = b.mul(acc, b.const_i32(coeff)); // the one difference
        b.ret(Some(acc));
    }
    println!("--- before merging ---");
    print!("{}", printer::print_module(&module));
    let before_a = execute(&module, "poly_a", vec![Val::i32(2), Val::i32(3)]).unwrap();
    let before_b = execute(&module, "poly_b", vec![Val::i32(2), Val::i32(3)]).unwrap();

    // 2. Run the FMSA optimization (FMSA alone: no identical-merging
    //    prepass).
    let cfg = Config::new().identical_prepass(false);
    let stats = fmsa::optimize(&mut module, &cfg).expect("module merges");
    println!("\n--- after merging ---");
    print!("{}", printer::print_module(&module));
    println!("\nmerges committed : {}", stats.merges);
    println!(
        "module size      : {} -> {} cost-model bytes ({:.1}% smaller)",
        stats.size_before,
        stats.size_after,
        stats.reduction_percent()
    );

    // 3. The merged module still computes the same results: the originals
    //    were deleted and their call sites redirect to the merged function,
    //    so we call it directly with the function identifier.
    let merged_name = module
        .func_ids()
        .into_iter()
        .map(|f| module.func(f).name.clone())
        .find(|n| n.starts_with("__merged"))
        .expect("merged function exists");
    let run = |fid: bool| {
        execute(&module, &merged_name, vec![Val::bool(fid), Val::i32(2), Val::i32(3)])
            .expect("merged function runs")
            .value
    };
    assert_eq!(run(true), before_a.value, "func_id=1 behaves like poly_a");
    assert_eq!(run(false), before_b.value, "func_id=0 behaves like poly_b");
    println!("\nbehaviour of both originals preserved through @{merged_name}");
}
