//! Property tests over the IR substrate itself: printer/parser round-trip,
//! verifier stability under clean-up passes, and CFG invariants — using
//! randomly built (but always structurally valid) functions.

use fmsa_ir::{
    cfg, parser, passes, printer, verify_module, FuncBuilder, IntPredicate, Module, Value,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random valid function purely from a seed (kept simpler than the
/// workloads generator — this one exercises the IR plumbing, not merging).
fn random_module(seed: u64) -> Module {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Module::new("prop-ir");
    let i32t = m.types.i32();
    let n_params = rng.gen_range(1..4usize);
    let fn_ty = m.types.func(i32t, vec![i32t; n_params]);
    let f = m.create_function("f", fn_ty);
    let mut b = FuncBuilder::new(&mut m, f);
    let entry = b.block("entry");
    b.switch_to(entry);
    let mut pool: Vec<Value> = (0..n_params).map(|k| Value::Param(k as u32)).collect();
    let regions = rng.gen_range(1..5usize);
    for _ in 0..regions {
        match rng.gen_range(0..3) {
            0 => {
                // Straight-line arithmetic.
                for _ in 0..rng.gen_range(1..6usize) {
                    let a = pool[rng.gen_range(0..pool.len())];
                    let c = Value::ConstInt { ty: i32t, bits: rng.gen_range(0..100u64) };
                    let v = if rng.gen_bool(0.5) { b.add(a, c) } else { b.xor(a, c) };
                    pool.push(v);
                }
            }
            1 => {
                // Diamond communicating through memory.
                let cell = b.alloca(i32t);
                let init = pool[rng.gen_range(0..pool.len())];
                b.store(init, cell);
                let t = b.block("t");
                let e = b.block("e");
                let j = b.block("j");
                let x = pool[rng.gen_range(0..pool.len())];
                let c = b.icmp(IntPredicate::Sgt, x, b.const_i32(10));
                b.condbr(c, t, e);
                b.switch_to(t);
                let tv = b.mul(x, b.const_i32(3));
                b.store(tv, cell);
                b.br(j);
                b.switch_to(e);
                b.br(j);
                b.switch_to(j);
                let out = b.load(cell);
                pool.push(out);
            }
            _ => {
                // Bounded loop.
                let i = b.alloca(i32t);
                b.store(b.const_i32(0), i);
                let h = b.block("h");
                let body = b.block("body");
                let exit = b.block("exit");
                b.br(h);
                b.switch_to(h);
                let iv = b.load(i);
                let c = b.icmp(IntPredicate::Slt, iv, b.const_i32(rng.gen_range(1..6)));
                b.condbr(c, body, exit);
                b.switch_to(body);
                let inc = b.add(iv, b.const_i32(1));
                b.store(inc, i);
                b.br(h);
                b.switch_to(exit);
                pool.push(b.load(i));
            }
        }
    }
    let r = pool[rng.gen_range(0..pool.len())];
    b.ret(Some(r));
    m
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn random_modules_verify(seed in 0u64..100_000) {
        let m = random_module(seed);
        let errs = verify_module(&m);
        prop_assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn printer_parser_roundtrip(seed in 0u64..100_000) {
        let m = random_module(seed);
        let text1 = printer::print_module(&m);
        let m2 = parser::parse_module(&text1)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{text1}")))?;
        let text2 = printer::print_module(&m2);
        prop_assert_eq!(text1, text2);
        prop_assert!(verify_module(&m2).is_empty());
    }

    #[test]
    fn threading_preserves_validity_and_reachability(seed in 0u64..100_000) {
        let mut m = random_module(seed);
        let f = m.func_ids()[0];
        let before_reachable = cfg::reverse_post_order(m.func(f)).len();
        passes::thread_trivial_blocks(m.func_mut(f));
        prop_assert!(verify_module(&m).is_empty());
        let after_reachable = cfg::reverse_post_order(m.func(f)).len();
        prop_assert!(after_reachable <= before_reachable);
    }

    #[test]
    fn rpo_covers_reachable_blocks_exactly_once(seed in 0u64..100_000) {
        let m = random_module(seed);
        let f = m.func_ids()[0];
        let rpo = cfg::reverse_post_order(m.func(f));
        let mut sorted = rpo.clone();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), rpo.len(), "no duplicates in RPO");
        let unreachable = cfg::unreachable_blocks(m.func(f));
        prop_assert_eq!(
            rpo.len() + unreachable.len(),
            m.func(f).block_count(),
            "rpo + unreachable = all blocks"
        );
    }

    #[test]
    fn dominators_entry_dominates_all(seed in 0u64..100_000) {
        let m = random_module(seed);
        let f = m.func_ids()[0];
        let dom = cfg::Dominators::compute(m.func(f));
        let entry = m.func(f).entry();
        for b in cfg::reverse_post_order(m.func(f)) {
            prop_assert!(dom.dominates(entry, b));
        }
    }
}
