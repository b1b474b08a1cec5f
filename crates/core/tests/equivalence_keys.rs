//! Exactness of the §III-D keys: for every entry pair checked, the
//! interned keys are equal exactly when the pairwise relation the keys
//! replaced (`support::PairwiseEquiv`, the oracle) says the entries are
//! equivalent. Pairs come from a 1000-function clone swarm, the suite
//! modules, a lowered wasm corpus, and generated functions covering the
//! relation's special cases: landing pads and invoke, GEP struct walks
//! (valid, non-constant and out-of-range struct indices, walks into a
//! scalar), switch cases, direct and indirect calls, φ, alloca sizes,
//! extract/insert indices and lossless-bitcast type classes.
//!
//! The linearization cache's keys are audited separately, against fresh
//! ones at every commit of a pipeline run.

mod support;

use fmsa_core::equivalence::{EquivCtx, KeyInterner};
use fmsa_core::linearize::{linearize, Entry};
use fmsa_core::pipeline;
use fmsa_core::{Config, SearchStrategy};
use fmsa_ir::printer::print_module;
use fmsa_ir::{
    BlockId, FloatPredicate, FuncBuilder, FuncId, Inst, IntPredicate, LandingPadClause, Module,
    Opcode, TyId, Value,
};
use fmsa_workloads::WasmFixtureConfig;
use fmsa_workloads::{clone_swarm_module, spec_suite, wasm_fixture_bytes, SwarmConfig};
use support::PairwiseEquiv;

/// Checks every entry pair of `(f1, f2)`: interned keys equal ⇔ the
/// oracle. With `ctx`, also checks the key-based `EquivCtx` (which builds
/// keys per call). Returns the number of pairs checked and how many of
/// them were equivalent.
fn assert_exact(
    m: &Module,
    interner: &KeyInterner,
    f1: FuncId,
    f2: FuncId,
    ctx: bool,
) -> (usize, usize) {
    let (seq1, seq2) = (linearize(m.func(f1)), linearize(m.func(f2)));
    let (keys1, keys2) = (interner.keys(m, f1, &seq1), interner.keys(m, f2, &seq2));
    let oracle = PairwiseEquiv::new(m, m.func(f1), m.func(f2));
    let keyed = EquivCtx::new(m, m.func(f1), m.func(f2));
    let mut equivalent = 0;
    for (e1, k1) in seq1.iter().zip(&keys1) {
        for (e2, k2) in seq2.iter().zip(&keys2) {
            let want = oracle.entries_equivalent(e1, e2);
            assert_eq!(
                k1 == k2,
                want,
                "{}/{}: {} vs {}",
                m.func(f1).name,
                m.func(f2).name,
                describe(m, f1, e1),
                describe(m, f2, e2)
            );
            if ctx {
                assert_eq!(keyed.entries_equivalent(e1, e2), want, "EquivCtx disagrees");
            }
            equivalent += want as usize;
        }
    }
    (seq1.len() * seq2.len(), equivalent)
}

fn describe(m: &Module, f: FuncId, e: &Entry) -> String {
    match e {
        Entry::Label(b) => format!("label {b:?}"),
        Entry::Inst(i) => format!("{:?}", m.func(f).inst(*i)),
    }
}

#[test]
fn keys_are_exact_on_a_1000_function_swarm() {
    let m = clone_swarm_module(&SwarmConfig::with_functions(1000));
    let ids = m.func_ids();
    let interner = KeyInterner::new();
    let (mut pairs, mut equivalent) = (0, 0);
    // Neighbours (mostly one clone family) and a far partner (another
    // family), both ways round.
    for (k, &f1) in ids.iter().enumerate() {
        for step in [1, 2, ids.len() / 2] {
            let f2 = ids[(k + step) % ids.len()];
            let (p, e) = assert_exact(&m, &interner, f1, f2, false);
            pairs += p;
            equivalent += e;
        }
    }
    assert!(pairs > 1_000_000 && equivalent > 0, "{equivalent} of {pairs}");
}

#[test]
fn keys_are_exact_on_suite_modules() {
    let mut pairs = 0;
    for d in spec_suite().into_iter().filter(|d| d.paper_fns <= 300) {
        let m = d.build();
        let ids = m.func_ids();
        let interner = KeyInterner::new();
        for (k, &f1) in ids.iter().enumerate().take(40) {
            for &f2 in ids.iter().skip(k).take(4) {
                pairs += assert_exact(&m, &interner, f1, f2, false).0;
            }
        }
    }
    assert!(pairs > 100_000, "{pairs}");
}

#[test]
fn keys_are_exact_on_a_wasm_corpus() {
    let bytes = wasm_fixture_bytes(&WasmFixtureConfig::with_functions(120));
    let m = fmsa_wasm::load_wasm(&bytes, "wasm-corpus").expect("fixture lowers");
    let ids = m.func_ids();
    let interner = KeyInterner::new();
    let mut pairs = 0;
    for (k, &f1) in ids.iter().enumerate() {
        for &f2 in ids.iter().skip(k).take(3) {
            pairs += assert_exact(&m, &interner, f1, f2, false).0;
        }
    }
    assert!(pairs > 100_000, "{pairs}");
}

#[test]
fn keys_are_exact_on_generated_functions() {
    for seed in 0..6 {
        let m = generated_module(seed, 12);
        let ids = m.func_ids();
        let interner = KeyInterner::new();
        let (mut pairs, mut equivalent) = (0, 0);
        for &f1 in &ids {
            for &f2 in &ids {
                let (p, e) = assert_exact(&m, &interner, f1, f2, true);
                pairs += p;
                equivalent += e;
            }
        }
        assert!(equivalent > 0 && equivalent < pairs, "seed {seed}: {equivalent} of {pairs}");
    }
}

#[test]
fn keyless_entries_get_fresh_ids() {
    let m = generated_module(3, 6);
    let interner = KeyInterner::new();
    let mut fresh = Vec::new();
    for f in m.func_ids() {
        let seq = linearize(m.func(f));
        let keys = interner.keys(&m, f, &seq);
        let oracle = PairwiseEquiv::new(&m, m.func(f), m.func(f));
        for (e, &k) in seq.iter().zip(&keys) {
            // Keyless exactly when the relation fails even reflexively.
            assert_eq!(KeyInterner::is_fresh(k), !oracle.entries_equivalent(e, e), "{e:?}");
            if KeyInterner::is_fresh(k) {
                fresh.push(k);
            }
        }
    }
    let n = fresh.len();
    fresh.sort_unstable();
    fresh.dedup();
    assert!(n > 0 && fresh.len() == n, "fresh ids are unique: {n} handed out");
}

/// Runs the key audit on `base` at one thread (every lookup through the
/// commit stage) and two (through the prefill); returns the merges.
fn audit_keys(base: &Module, cfg: Config) -> usize {
    let mut merges = 0;
    for threads in [1usize, 2] {
        let cfg = cfg.clone().parallel(threads);
        let mut audited = base.clone();
        let (stats, audit) = pipeline::run_key_audited(&mut audited, &cfg);
        assert!(audit.is_clean(), "{:?}", &audit.mismatches[..audit.mismatches.len().min(5)]);
        assert_eq!(audit.checked, 2 * stats.attempted, "two functions per attempt");
        let mut plain = base.clone();
        pipeline::run(&mut plain, &cfg);
        assert_eq!(print_module(&audited), print_module(&plain), "audit changed the output");
        merges += stats.merges;
    }
    merges
}

/// At every commit attempt the cached keys of both functions equal fresh
/// ones, and the audit leaves the output untouched: on a swarm, on the
/// suite modules, and on clone families that call each other, whose
/// merges rewrite callers that are aligned again later.
#[test]
fn cached_keys_stay_fresh_through_a_pipeline_run() {
    let swarm = clone_swarm_module(&SwarmConfig::with_functions(400));
    assert!(audit_keys(&swarm, Config::new().threshold(5).search(SearchStrategy::Lsh)) > 0);
    let mut merges = 0;
    for d in spec_suite().into_iter().filter(|d| d.paper_fns <= 300) {
        merges += audit_keys(&d.build(), Config::new().threshold(5));
    }
    for seed in 0..8 {
        merges += audit_keys(&calling_families(seed, 6, 3), Config::new().threshold(5));
    }
    assert!(merges > 0);
}

// ---------------------------------------------------------------- generator

/// A small deterministic generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

/// Types and symbols the generated functions share, so that equal and
/// unequal keys both occur often.
struct Pool {
    i16t: TyId,
    i32t: TyId,
    i64t: TyId,
    half: TyId,
    f32t: TyId,
    f64t: TyId,
    i8p: TyId,
    /// `{ i32, float }`
    pair: TyId,
    /// `{ i64, [4 x i32] }`
    nested: TyId,
    /// `[4 x i32]`
    arr: TyId,
    /// Callees `i32 (i32)`, twice, and `float (float)`.
    callees: [FuncId; 3],
    thrower: FuncId,
}

/// Parameters of every generated function: `i32, float, i64, double,
/// i32*, { i32, float }*, i16, half`.
const P_I32: Value = Value::Param(0);
const P_F32: Value = Value::Param(1);
const P_I64: Value = Value::Param(2);
const P_F64: Value = Value::Param(3);
const P_I32P: Value = Value::Param(4);
const P_PAIRP: Value = Value::Param(5);
const P_I16: Value = Value::Param(6);
const P_HALF: Value = Value::Param(7);

fn generated_module(seed: u64, count: usize) -> Module {
    let mut m = Module::new("keys");
    let t = &mut m.types;
    let (i8t, i16t, i32t, i64t) = (t.i8(), t.i16(), t.i32(), t.i64());
    let (half, f32t, f64t, void) = (t.half(), t.f32(), t.f64(), t.void());
    let i8p = t.ptr(i8t);
    let i32p = t.ptr(i32t);
    let pair = t.struct_(vec![i32t, f32t]);
    let pairp = t.ptr(pair);
    let arr = t.array(i32t, 4);
    let nested = t.struct_(vec![i64t, arr]);
    let int_fn = t.func(i32t, vec![i32t]);
    let float_fn = t.func(f32t, vec![f32t]);
    let void_fn = t.func(void, vec![]);
    let fn_ty = t.func(i32t, vec![i32t, f32t, i64t, f64t, i32p, pairp, i16t, half]);
    let callees = [
        m.create_function("g1", int_fn),
        m.create_function("g2", int_fn),
        m.create_function("h", float_fn),
    ];
    let thrower = m.create_function("thrower", void_fn);
    let pool =
        Pool { i16t, i32t, i64t, half, f32t, f64t, i8p, pair, nested, arr, callees, thrower };
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    for k in 0..count {
        let f = m.create_function(format!("f{k}"), fn_ty);
        build_body(&mut m, f, &pool, &mut rng);
    }
    m
}

fn build_body(m: &mut Module, f: FuncId, p: &Pool, rng: &mut Rng) {
    let mut b = FuncBuilder::new(m, f);
    let entry = b.block("entry");
    let left = b.block("left");
    let right = b.block("right");
    let join = b.block("join");
    b.switch_to(entry);
    for _ in 0..4 + rng.below(6) {
        straight_line(&mut b, f, p, rng);
    }
    match rng.below(3) {
        0 => {
            // Case constants from a tiny pool: equal and unequal case
            // lists both occur.
            let c1 = b.const_i32(rng.pick(&[1, 2]));
            let c2 = b.const_i32(rng.pick(&[3, 4]));
            let cases =
                if rng.below(2) == 0 { vec![(c1, left)] } else { vec![(c1, left), (c2, right)] };
            b.switch(P_I32, join, cases);
        }
        1 => {
            let lpad = b.block("lpad");
            b.invoke(p.thrower, vec![], left, lpad);
            b.switch_to(lpad);
            let clauses = match rng.below(4) {
                0 => vec![LandingPadClause::Catch("A".into())],
                1 => vec![LandingPadClause::Catch("B".into())],
                2 => vec![LandingPadClause::Filter(vec!["A".into(), "B".into()])],
                _ => vec![],
            };
            let pad = b.landingpad(clauses, rng.below(2) == 0);
            b.resume(pad);
        }
        _ => {
            let c = b.icmp(IntPredicate::Sgt, P_I32, b.const_i32(0));
            b.condbr(c, left, right);
        }
    }
    b.switch_to(left);
    straight_line(&mut b, f, p, rng);
    b.br(join);
    b.switch_to(right);
    straight_line(&mut b, f, p, rng);
    b.br(join);
    b.switch_to(join);
    if rng.below(2) == 0 {
        let v = b.phi(p.i32t, vec![(P_I32, left), (b.const_i32(1), right)]);
        b.ret(Some(v));
    } else {
        b.ret(Some(P_I32));
    }
}

/// One random non-terminator instruction.
fn straight_line(b: &mut FuncBuilder<'_>, f: FuncId, p: &Pool, rng: &mut Rng) {
    let i64_0 = b.const_i64(0);
    match rng.below(16) {
        0 => {
            let ty =
                rng.pick(&[p.i16t, p.i32t, p.i64t, p.half, p.f32t, p.f64t, p.i8p, p.pair, p.arr]);
            b.alloca(ty);
        }
        1 => {
            let op = rng.pick(&[Opcode::Add, Opcode::Sub, Opcode::Mul]);
            let (l, r) = rng.pick(&[(P_I32, P_I32), (P_I64, P_I64), (P_I16, P_I16)]);
            b.binary(op, l, r);
        }
        2 => {
            let op = rng.pick(&[Opcode::FAdd, Opcode::FMul]);
            let v = rng.pick(&[P_F32, P_F64, P_HALF]);
            b.binary(op, v, v);
        }
        3 => {
            let pred = rng.pick(&[IntPredicate::Slt, IntPredicate::Eq]);
            b.icmp(pred, P_I32, b.const_i32(rng.below(2) as i32));
        }
        4 => {
            let pred = rng.pick(&[FloatPredicate::Olt, FloatPredicate::Oeq]);
            b.fcmp(pred, P_F32, P_F32);
        }
        5 => {
            // Same-size bitcasts: i32/float, i64/double, i16/half.
            let (v, to) =
                rng.pick(&[(P_I32, p.f32t), (P_I64, p.f64t), (P_I16, p.half), (P_F32, p.i32t)]);
            b.bitcast(v, to);
        }
        6 => {
            // Struct walks: a valid field, a non-constant field index, an
            // out-of-range field, and a field index of another int type.
            let i32_1 = b.const_i32(1);
            let i64_1 = b.const_i64(1);
            let (idx, res) = match rng.below(5) {
                0 => (b.const_i32(0), p.i32t),
                1 => (i32_1, p.f32t),
                2 => (P_I32, p.i32t),
                3 => (b.const_i32(7), p.i32t),
                _ => (i64_1, p.f32t),
            };
            let base = rng.pick(&[i64_0, P_I64]);
            b.gep(p.pair, P_PAIRP, vec![base, idx], res);
        }
        7 => {
            // Nested walk: struct field 1, then any array element.
            let field = b.const_i32(1);
            let elem = rng.pick(&[P_I64, i64_0]);
            let pairp = b.bitcast(P_PAIRP, p.i8p);
            b.gep(p.nested, pairp, vec![i64_0, field, elem], p.i32t);
        }
        8 => {
            // Walks into a scalar fail for any partner.
            let idx = b.const_i32(0);
            b.gep(p.i32t, P_I32P, vec![i64_0, idx], p.i32t);
        }
        9 => {
            let agg = b.load(P_PAIRP);
            let (idx, ty) = rng.pick(&[(0, p.i32t), (1, p.f32t), (1, p.i32t)]);
            b.extract_value(agg, vec![idx], ty);
        }
        10 => {
            let agg = b.load(P_PAIRP);
            b.insert_value(agg, P_I32, vec![rng.pick(&[0, 1])]);
        }
        11 => {
            let c = b.icmp(IntPredicate::Ne, P_I32, b.const_i32(0));
            let (t, e) =
                rng.pick(&[(P_I32, P_I32), (P_F32, P_F32), (P_I16, P_I16), (P_HALF, P_HALF)]);
            b.select(c, t, e);
        }
        12 => {
            let callee = rng.pick(&p.callees);
            let arg = if callee == p.callees[2] { P_F32 } else { P_I32 };
            b.call(callee, vec![arg]);
        }
        13 => {
            // Indirect calls through a parameter or a loaded pointer: the
            // callee operand is compared raw.
            let callee = if rng.below(2) == 0 { P_I32P } else { b.load(P_PAIRP) };
            let block = b.current_block();
            let ret = p.i32t;
            append(b, f, block, Inst::new(Opcode::Call, ret, vec![callee, P_I32]));
        }
        14 => {
            let v = rng.pick(&[P_I32, P_F32, P_I64, P_I16, P_HALF]);
            let slot_ty = rng.pick(&[p.i32t, p.f32t, p.i64t, p.half]);
            let slot = b.alloca(slot_ty);
            b.store(v, slot);
        }
        _ => {
            let to = rng.pick(&[p.i64t, p.i32t]);
            b.zext(P_I16, to);
        }
    }
}

/// Clone families whose members call random functions of the module, so
/// that merges rewrite callers (after the pipeline's tests of indexed
/// commits).
fn calling_families(seed: u64, families: usize, members: usize) -> Module {
    let mut m = Module::new("calling");
    let i32t = m.types.i32();
    let fn_ty = m.types.func(i32t, vec![i32t]);
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let ids: Vec<FuncId> = (0..families * members)
        .map(|k| m.create_function(format!("fam{}_m{}", k / members, k % members), fn_ty))
        .collect();
    for (k, &f) in ids.iter().enumerate() {
        let callee = ids[rng.below(ids.len())];
        let calls = rng.below(10) < 6 && callee != f;
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let mut v = P_I32;
        for j in 0..10 {
            v = b.add(v, b.const_i32((k / members * 3 + j) as i32));
            v = b.mul(v, P_I32);
        }
        if calls {
            v = b.call(callee, vec![v]);
        }
        v = b.xor(v, b.const_i32((k % members) as i32));
        b.ret(Some(v));
    }
    m
}

fn append(b: &mut FuncBuilder<'_>, f: FuncId, block: BlockId, inst: Inst) {
    b.module_mut().func_mut(f).append_inst(block, inst);
}
