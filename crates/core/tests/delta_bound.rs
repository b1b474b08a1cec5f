//! Soundness of the pre-codegen Δ bound on generated pairs: for every
//! pair, `delta_bound` is at least the Δ that `evaluate` reports for the
//! body `merge_pair_aligned` builds, and when the bound rules a pair out,
//! replaying the skip leaves the type store exactly as building and
//! discarding the body did.
//!
//! The generator covers the shapes each term of the bound is about:
//! external-linkage and address-taken sides (thunk ε), void vs value
//! returns, identical pairs (no function identifier), br-only blocks and
//! φs, commutative operands in either order, and swapped branch targets
//! (mismatched label operands).

use fmsa_core::linearize::linearize;
use fmsa_core::merge::{align_with, merge_pair_aligned, MergeConfig};
use fmsa_core::profitability::{delta_bound, evaluate};
use fmsa_ir::{FuncBuilder, FuncId, IntPredicate, Linkage, Module, TyId, Value};
use fmsa_target::{CostModel, TargetArch};
use proptest::prelude::*;

/// A small deterministic generator (the shapes must not depend on the
/// test harness's own randomness source).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Add,
    Mul,
    Xor,
    Sub,
}

/// One arithmetic step `v = op(v, operand)`; `rhs_first` puts the operand
/// on the left, which only a commutative swap can realign.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Step {
    op: Op,
    constant: u64,
    use_param: bool,
    rhs_first: bool,
}

#[derive(Debug, Clone, PartialEq)]
struct Diamond {
    pred: IntPredicate,
    swap_targets: bool,
    /// The then-block is only a `br` to the join.
    then_trivial: bool,
    else_steps: Vec<Step>,
    /// Join the two arms with a φ instead of reusing the entry value.
    phi: bool,
}

#[derive(Debug, Clone, PartialEq)]
struct Shape {
    wide: bool,
    returns_value: bool,
    steps: Vec<Step>,
    diamond: Option<Diamond>,
    tail: Vec<Step>,
    external: bool,
    address_taken: bool,
}

fn random_step(rng: &mut Rng) -> Step {
    let op = [Op::Add, Op::Mul, Op::Xor, Op::Sub][rng.below(4) as usize];
    Step { op, constant: rng.below(5), use_param: rng.chance(40), rhs_first: rng.chance(30) }
}

fn random_shape(rng: &mut Rng) -> Shape {
    let steps = (0..1 + rng.below(8)).map(|_| random_step(rng)).collect();
    let diamond = rng.chance(60).then(|| Diamond {
        pred: [IntPredicate::Slt, IntPredicate::Eq, IntPredicate::Ne][rng.below(3) as usize],
        swap_targets: rng.chance(20),
        then_trivial: rng.chance(50),
        else_steps: (0..1 + rng.below(3)).map(|_| random_step(rng)).collect(),
        phi: rng.chance(40),
    });
    let tail = (0..rng.below(4)).map(|_| random_step(rng)).collect();
    Shape {
        wide: rng.chance(20),
        returns_value: rng.chance(75),
        steps,
        diamond,
        tail,
        external: rng.chance(20),
        address_taken: rng.chance(15),
    }
}

/// The second side of a pair: `base` itself (an identical pair), or a copy
/// with a few edits.
fn mutate(base: &Shape, rng: &mut Rng) -> Shape {
    let mut s = base.clone();
    if rng.chance(15) {
        return s;
    }
    for _ in 0..1 + rng.below(3) {
        match rng.below(9) {
            0 => {
                let k = rng.below(s.steps.len() as u64) as usize;
                s.steps[k].constant = rng.below(5);
            }
            1 => {
                let k = rng.below(s.steps.len() as u64) as usize;
                s.steps[k].rhs_first = !s.steps[k].rhs_first;
            }
            2 => s.steps.push(random_step(rng)),
            3 => {
                if s.steps.len() > 1 {
                    s.steps.remove(rng.below(s.steps.len() as u64) as usize);
                }
            }
            4 => s.returns_value = !s.returns_value,
            5 => match &mut s.diamond {
                Some(d) => d.swap_targets = !d.swap_targets,
                None => s.tail.push(random_step(rng)),
            },
            6 => match &mut s.diamond {
                Some(d) => {
                    d.then_trivial = !d.then_trivial;
                    d.phi = !d.phi;
                }
                None => s.wide = !s.wide,
            },
            7 => s.external = !s.external,
            _ => s.address_taken = !s.address_taken,
        }
    }
    s
}

fn emit_steps(b: &mut FuncBuilder<'_>, mut v: Value, steps: &[Step], ty: TyId) -> Value {
    for st in steps {
        let operand = if st.use_param {
            Value::Param(1)
        } else {
            Value::ConstInt { ty, bits: st.constant + 1 }
        };
        let (l, r) = if st.rhs_first { (operand, v) } else { (v, operand) };
        v = match st.op {
            Op::Add => b.add(l, r),
            Op::Mul => b.mul(l, r),
            Op::Xor => b.xor(l, r),
            Op::Sub => b.sub(l, r),
        };
    }
    v
}

fn build(m: &mut Module, name: &str, s: &Shape) -> FuncId {
    let ty = if s.wide { m.types.i64() } else { m.types.i32() };
    let ret = if s.returns_value { ty } else { m.types.void() };
    let fn_ty = m.types.func(ret, vec![ty, ty]);
    let f = m.create_function(name, fn_ty);
    m.func_mut(f).linkage = if s.external { Linkage::External } else { Linkage::Internal };
    m.func_mut(f).address_taken = s.address_taken;
    let mut b = FuncBuilder::new(m, f);
    let entry = b.block("entry");
    b.switch_to(entry);
    let mut v = emit_steps(&mut b, Value::Param(0), &s.steps, ty);
    if let Some(d) = &s.diamond {
        let (then_b, else_b, join) = (b.block("then"), b.block("else"), b.block("join"));
        let c = b.icmp(d.pred, v, Value::ConstInt { ty, bits: 3 });
        if d.swap_targets {
            b.condbr(c, else_b, then_b);
        } else {
            b.condbr(c, then_b, else_b);
        }
        b.switch_to(then_b);
        let vt = if d.then_trivial { v } else { emit_steps(&mut b, v, &s.tail, ty) };
        b.br(join);
        b.switch_to(else_b);
        let ve = emit_steps(&mut b, v, &d.else_steps, ty);
        b.br(join);
        b.switch_to(join);
        if d.phi {
            v = b.phi(ty, vec![(vt, then_b), (ve, else_b)]);
        }
    }
    v = emit_steps(&mut b, v, &s.tail, ty);
    if s.returns_value {
        b.ret(Some(v));
    } else {
        let slot = b.alloca(ty);
        b.store(v, slot);
        b.ret(None);
    }
    f
}

/// A module with the pair, a caller of both (so deletable sides have
/// call sites to update), and — unless `bare` — the pointer types codegen
/// may intern for demotion slots, so that the gate can rule pairs out.
fn pair_module(seed: u64) -> (Module, FuncId, FuncId, Shape, Shape) {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let s1 = random_shape(&mut rng);
    let s2 = mutate(&s1, &mut rng);
    let mut m = Module::new("pair");
    if !rng.chance(10) {
        for t in [m.types.i1(), m.types.i32(), m.types.i64()] {
            m.types.ptr(t);
        }
    }
    let f1 = build(&mut m, "f1", &s1);
    let f2 = build(&mut m, "f2", &s2);
    let i32t = m.types.i32();
    let caller_ty = m.types.func(m.types.void(), vec![i32t]);
    let caller = m.create_function("caller", caller_ty);
    let mut b = FuncBuilder::new(&mut m, caller);
    let e = b.block("entry");
    b.switch_to(e);
    for (f, s) in [(f1, &s1), (f2, &s2)] {
        let arg = if s.wide { b.const_i64(7) } else { b.const_i32(7) };
        b.call(f, vec![arg, arg]);
    }
    b.ret(None);
    (m, f1, f2, s1, s2)
}

/// What one checked pair exercised.
#[derive(Debug, Default)]
struct Seen {
    built: bool,
    ruled_out: bool,
    replayed_new_types: bool,
    identical: bool,
}

/// Checks the bound (and, for a ruled-out pair, the type replay) on one
/// generated pair; returns what the pair exercised.
fn check(seed: u64, reorder_commutative: bool) -> Result<Seen, TestCaseError> {
    let (m, f1, f2, _, _) = pair_module(seed);
    let cfg = MergeConfig { reorder_commutative, ..MergeConfig::default() };
    let mut seen = Seen::default();
    for arch in TargetArch::ALL {
        let cm = CostModel::new(arch);
        let seq1 = linearize(m.func(f1));
        let seq2 = linearize(m.func(f2));
        let al = align_with(&m, f1, f2, &seq1, &seq2, &cfg.scoring, cfg.algorithm);
        let Ok(bound) = delta_bound(&m, &cm, f1, f2, &seq1, &seq2, &al, &cfg) else {
            return Ok(seen);
        };
        let mut built = m.clone();
        if let Ok(info) = merge_pair_aligned(&mut built, f1, f2, seq1, seq2, al, &cfg) {
            let real = evaluate(&built, &cm, &info);
            prop_assert!(real.delta <= bound.bound, "seed {seed} {arch:?}: {real:?} vs {bound:?}");
            prop_assert!(real.size_merged >= bound.size_merged, "seed {seed}: {bound:?}");
            prop_assert!(real.epsilon >= bound.epsilon, "seed {seed}: {bound:?}");
            seen.built = true;
            seen.identical |= !info.has_func_id;
            built.remove_function(info.merged);
        }
        if bound.rules_out(&m.types) {
            seen.ruled_out = true;
            let mut replayed = m.types.clone();
            bound.replay_skip(&mut replayed);
            seen.replayed_new_types |= replayed.len() > m.types.len();
            prop_assert_eq!(replayed.len(), built.types.len(), "seed {}: store length", seed);
            for k in 0..replayed.len() {
                let id = fmsa_ir::TyId::from_index(k);
                prop_assert_eq!(replayed.get(id), built.types.get(id), "seed {}: type {}", seed, k);
            }
        }
    }
    Ok(seen)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    #[test]
    fn bound_never_falls_below_the_real_delta(seed in 0u64..u64::MAX, reorder in 0u8..2) {
        check(seed, reorder == 1)?;
    }
}

/// A fixed sweep: the same property, plus proof that the generator
/// reaches every shape the bound's terms are about.
#[test]
fn bound_holds_across_the_generated_shapes() {
    let mut tally = [0usize; 12];
    for seed in 0..600u64 {
        let seen = check(seed, true).unwrap_or_else(|e| panic!("{e:?}"));
        let (_, _, _, s1, s2) = pair_module(seed);
        let sides = [&s1, &s2];
        let diamonds: Vec<&Diamond> = sides.iter().filter_map(|s| s.diamond.as_ref()).collect();
        let swapped_step = s1.steps.iter().zip(&s2.steps).any(|(a, b)| a.rhs_first != b.rhs_first);
        let marks = [
            seen.built,
            seen.ruled_out,
            seen.replayed_new_types,
            seen.identical,
            sides.iter().any(|s| s.external),
            sides.iter().any(|s| s.address_taken),
            s1.returns_value != s2.returns_value,
            seen.built && diamonds.iter().any(|d| d.then_trivial),
            seen.built && diamonds.iter().any(|d| d.phi),
            swapped_step,
            diamonds.len() == 2 && diamonds[0].swap_targets != diamonds[1].swap_targets,
            seen.built && s1.returns_value != s2.returns_value,
        ];
        for (t, hit) in tally.iter_mut().zip(marks) {
            *t += hit as usize;
        }
    }
    let names = [
        "built",
        "ruled out",
        "replay interned new types",
        "identical pair",
        "external side",
        "address-taken side",
        "void vs value",
        "br-only block",
        "phi",
        "commutative swap",
        "mismatched labels",
        "void vs value built",
    ];
    for (name, &count) in names.iter().zip(&tally) {
        assert!(count > 0, "the generator never produced: {name} ({tally:?})");
    }
}
