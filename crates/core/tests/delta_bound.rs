//! Soundness of the pre-codegen Δ bound on generated pairs: for every
//! pair, `delta_bound` is at least the Δ that `evaluate` reports for the
//! body `merge_pair_aligned` builds, and discarding that body
//! (`merge::discard`), or a build that fails, leaves the type store
//! exactly as it was — so a pair the bound rules out can skip the build
//! without changing the store.
//!
//! The generator covers the shapes each term of the bound is about:
//! external-linkage and address-taken sides (thunk ε), void vs value
//! returns, identical pairs (no function identifier), br-only blocks and
//! φs, commutative operands in either order, and swapped branch targets
//! (selector blocks). For the CFG dry run it adds the shapes register
//! demotion is about: values defined in one side's divergent region and
//! used after the join, by a later region of the same side, through a
//! select, or by a `ret` with a return cast; `invoke` defs, whose stores
//! open the normal destination; an early exit that leaves a join
//! reachable from one arm only; a chain left unreachable (a dead block
//! appended to one side's sequence); and the fallback shapes, φs and a
//! selector between two landing blocks.

use fmsa_align::Step as Column;
use fmsa_core::linearize::{linearize, Entry};
use fmsa_core::merge::{align, discard, merge_pair_aligned, MergeConfig};
use fmsa_core::profitability::{delta_bound, evaluate, BodyCharge};
use fmsa_ir::{
    cfg, FuncBuilder, FuncId, IntPredicate, LandingPadClause, Linkage, Module, Opcode, TyId, Type,
    Value,
};
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

/// The second operand of a step.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Operand {
    Const(u64),
    Param,
    /// The value `k` steps back in the same straight-line run (clamped
    /// to the run's input): an earlier region's value.
    Back(usize),
}

/// One arithmetic step `v = op(v, operand)`; `rhs_first` puts the operand
/// on the left, which only a commutative swap can realign.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Step {
    op: Op,
    operand: Operand,
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
    /// The else-block returns early: the join has the then-block as its
    /// only predecessor and continues from the then-value.
    else_exits: bool,
}

/// A call of the module's `callee` after the leading steps.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Call {
    /// An `invoke` (normal destination continues the body, the landing
    /// block resumes) instead of a plain call.
    invoke: bool,
    /// The landing pad's catch clause: different clauses keep two
    /// landing blocks apart, so matched invokes need a landing selector.
    clause: u8,
}

#[derive(Debug, Clone, PartialEq)]
struct Shape {
    wide: bool,
    returns_value: bool,
    /// Return the zero-extended result as `i64` (narrow shapes only).
    ret_zext: bool,
    /// Return the tail's value this many steps before its last.
    ret_back: usize,
    steps: Vec<Step>,
    call: Option<Call>,
    diamond: Option<Diamond>,
    tail: Vec<Step>,
    external: bool,
    address_taken: bool,
}

fn random_step(rng: &mut Rng) -> Step {
    let op = [Op::Add, Op::Mul, Op::Xor, Op::Sub][rng.below(4) as usize];
    let operand = match rng.below(10) {
        0..=3 => Operand::Param,
        4 | 5 => Operand::Back(1 + rng.below(3) as usize),
        _ => Operand::Const(rng.below(5)),
    };
    Step { op, operand, rhs_first: rng.chance(30) }
}

fn random_steps(rng: &mut Rng, min: u64, spread: u64) -> Vec<Step> {
    (0..min + rng.below(spread)).map(|_| random_step(rng)).collect()
}

fn random_shape(rng: &mut Rng) -> Shape {
    let steps = random_steps(rng, 1, 8);
    let call = rng.chance(25).then(|| Call { invoke: rng.chance(60), clause: 0 });
    let diamond = rng.chance(60).then(|| Diamond {
        pred: [IntPredicate::Slt, IntPredicate::Eq, IntPredicate::Ne][rng.below(3) as usize],
        swap_targets: rng.chance(20),
        then_trivial: rng.chance(50),
        else_steps: random_steps(rng, 1, 3),
        phi: rng.chance(40),
        else_exits: rng.chance(20),
    });
    let tail = random_steps(rng, 0, 4);
    Shape {
        wide: rng.chance(20),
        returns_value: rng.chance(75),
        ret_zext: rng.chance(15),
        ret_back: if rng.chance(20) { 1 + rng.below(2) as usize } else { 0 },
        steps,
        call,
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
        match rng.below(12) {
            0 => {
                let k = rng.below(s.steps.len() as u64) as usize;
                s.steps[k].operand = Operand::Const(rng.below(5));
            }
            1 => {
                let k = rng.below(s.steps.len() as u64) as usize;
                s.steps[k].rhs_first = !s.steps[k].rhs_first;
            }
            2 => {
                let k = rng.below(s.steps.len() as u64 + 1) as usize;
                s.steps.insert(k, random_step(rng));
            }
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
            7 => match &mut s.call {
                Some(c) if rng.chance(50) => c.invoke = !c.invoke,
                Some(c) => c.clause ^= 1,
                None => s.ret_zext = !s.ret_zext,
            },
            8 => match &mut s.diamond {
                Some(d) => d.else_exits = !d.else_exits,
                None => s.ret_back = rng.below(3) as usize,
            },
            9 => {
                let k = rng.below(s.tail.len() as u64 + 1) as usize;
                s.tail.insert(k, random_step(rng));
            }
            10 => s.external = !s.external,
            _ => s.address_taken = !s.address_taken,
        }
    }
    s
}

/// Emits a straight-line run of steps from `v`; returns every value of
/// the run, its input first.
fn emit_steps(b: &mut FuncBuilder<'_>, v: Value, steps: &[Step], ty: TyId) -> Vec<Value> {
    let mut run = vec![v];
    for st in steps {
        let v = *run.last().expect("run starts with its input");
        let operand = match st.operand {
            Operand::Param => Value::Param(1),
            Operand::Const(c) => Value::ConstInt { ty, bits: c + 1 },
            Operand::Back(k) => run[run.len().saturating_sub(1 + k)],
        };
        let (l, r) = if st.rhs_first { (operand, v) } else { (v, operand) };
        run.push(match st.op {
            Op::Add => b.add(l, r),
            Op::Mul => b.mul(l, r),
            Op::Xor => b.xor(l, r),
            Op::Sub => b.sub(l, r),
        });
    }
    run
}

fn last(run: &[Value]) -> Value {
    *run.last().expect("a run holds its input")
}

/// The value type and return type of shape `s`.
fn types_of(m: &mut Module, s: &Shape) -> (TyId, TyId) {
    let ty = if s.wide { m.types.i64() } else { m.types.i32() };
    let ret = match (s.returns_value, s.ret_zext && !s.wide) {
        (false, _) => m.types.void(),
        (true, true) => m.types.i64(),
        (true, false) => ty,
    };
    (ty, ret)
}

/// Returns `v` the way shape `s` does.
fn emit_ret(b: &mut FuncBuilder<'_>, s: &Shape, v: Value, ty: TyId, ret: TyId) {
    if !s.returns_value {
        let slot = b.alloca(ty);
        b.store(v, slot);
        b.ret(None);
    } else if ret != ty {
        let w = b.zext(v, ret);
        b.ret(Some(w));
    } else {
        b.ret(Some(v));
    }
}

/// Builds shape `s`; with `dead`, also two blocks nothing branches to,
/// which use the entry block's first value and each other's.
fn build(m: &mut Module, name: &str, s: &Shape, dead: bool) -> FuncId {
    let (ty, ret) = types_of(m, s);
    let callee = m.func_by_name(if s.wide { "callee64" } else { "callee32" }).expect("callee");
    let fn_ty = m.types.func(ret, vec![ty, ty]);
    let f = m.create_function(name, fn_ty);
    m.func_mut(f).linkage = if s.external { Linkage::External } else { Linkage::Internal };
    m.func_mut(f).address_taken = s.address_taken;
    let mut b = FuncBuilder::new(m, f);
    let entry = b.block("entry");
    b.switch_to(entry);
    let run = emit_steps(&mut b, Value::Param(0), &s.steps, ty);
    let first = run[1];
    let mut v = last(&run);
    if let Some(call) = s.call {
        if call.invoke {
            let (normal, lpad) = (b.block("normal"), b.block("lpad"));
            v = b.invoke(callee, vec![v], normal, lpad);
            b.switch_to(lpad);
            let clause = LandingPadClause::Catch(format!("exn{}", call.clause));
            let exn = b.landingpad(vec![clause], false);
            b.resume(exn);
            b.switch_to(normal);
        } else {
            v = b.call(callee, vec![v]);
        }
    }
    if let Some(d) = &s.diamond {
        let (then_b, else_b, join) = (b.block("then"), b.block("else"), b.block("join"));
        let c = b.icmp(d.pred, v, Value::ConstInt { ty, bits: 3 });
        if d.swap_targets {
            b.condbr(c, else_b, then_b);
        } else {
            b.condbr(c, then_b, else_b);
        }
        b.switch_to(then_b);
        let vt = if d.then_trivial { v } else { last(&emit_steps(&mut b, v, &s.tail, ty)) };
        b.br(join);
        b.switch_to(else_b);
        let ve = last(&emit_steps(&mut b, v, &d.else_steps, ty));
        if d.else_exits {
            emit_ret(&mut b, s, ve, ty, ret);
            b.switch_to(join);
            v = vt;
        } else {
            b.br(join);
            b.switch_to(join);
            if d.phi {
                v = b.phi(ty, vec![(vt, then_b), (ve, else_b)]);
            }
        }
    }
    let run = emit_steps(&mut b, v, &s.tail, ty);
    emit_ret(&mut b, s, run[run.len().saturating_sub(1 + s.ret_back)], ty, ret);
    if dead {
        let (d1, d2) = (b.block("dead"), b.block("dead.next"));
        b.switch_to(d1);
        let x = b.add(first, Value::ConstInt { ty, bits: 9 });
        b.br(d2);
        b.switch_to(d2);
        let y = b.mul(x, Value::Param(1));
        emit_ret(&mut b, s, y, ty, ret);
    }
    f
}

/// A generated pair in its module, plus a caller of both (so deletable
/// sides have call sites to update).
struct Pair {
    m: Module,
    f1: FuncId,
    f2: FuncId,
    s1: Shape,
    s2: Shape,
    /// The first side has dead blocks, appended to its sequence.
    dead: bool,
}

fn pair_module(seed: u64) -> Pair {
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let s1 = random_shape(&mut rng);
    let s2 = mutate(&s1, &mut rng);
    let dead = rng.chance(8);
    let mut m = Module::new("pair");
    for (name, ty) in [("callee32", m.types.i32()), ("callee64", m.types.i64())] {
        let fn_ty = m.types.func(ty, vec![ty]);
        m.create_function(name, fn_ty);
    }
    let f1 = build(&mut m, "f1", &s1, dead);
    let f2 = build(&mut m, "f2", &s2, false);
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
    Pair { m, f1, f2, s1, s2, dead }
}

/// What one checked pair exercised.
#[derive(Debug, Default)]
struct Seen {
    built: bool,
    ruled_out: bool,
    /// A ruled-out pair's build interned types that its discard dropped.
    dropped_new_types: bool,
    /// One of them was a demotion slot's pointer type.
    dropped_slot_types: bool,
    identical: bool,
    dry_run: bool,
    fallback: bool,
    /// Values the built body demoted (the allocas of its entry block:
    /// pass 1 clones nothing there).
    demoted: usize,
    /// Built pairs the dry run bounded, and those whose merged size it
    /// charged exactly (one count per target).
    dry_built: usize,
    exact: usize,
}

/// Checks the bound, and that the build leaves no types behind once
/// discarded, on one generated pair; returns what the pair exercised.
fn check(seed: u64) -> Result<Seen, TestCaseError> {
    let Pair { m, f1, f2, dead, .. } = pair_module(seed);
    let cfg = MergeConfig::default();
    let mut seen = Seen::default();
    let mut seq1 = linearize(m.func(f1));
    let seq2 = linearize(m.func(f2));
    let mut al = align(&m, f1, f2, &seq1, &seq2);
    if dead {
        // The dead blocks join the first side's last divergent region,
        // whose chain stays unreachable in the merged body.
        for b in cfg::unreachable_blocks(m.func(f1)) {
            seq1.push(Entry::Label(b));
            seq1.extend(m.func(f1).block(b).insts.iter().map(|&i| Entry::Inst(i)));
        }
        let aligned = al.steps.iter().filter(|s| !matches!(s, Column::Right(_))).count();
        al.steps.extend((aligned..seq1.len()).map(Column::Left));
    }
    for arch in TargetArch::ALL {
        let cm = CostModel::new(arch);
        let Ok(bound) = delta_bound(&m, &cm, f1, f2, &seq1, &seq2, &al, &cfg) else {
            return Ok(seen);
        };
        seen.dry_run |= bound.charge == BodyCharge::DryRun;
        seen.fallback |= bound.charge == BodyCharge::Fallback;
        let mut built = m.clone();
        let build =
            merge_pair_aligned(&mut built, f1, f2, seq1.clone(), seq2.clone(), al.clone(), &cfg);
        if let Ok(info) = build {
            let real = evaluate(&built, &cm, &info);
            prop_assert!(real.delta <= bound.bound, "seed {seed} {arch:?}: {real:?} vs {bound:?}");
            prop_assert!(real.size_merged >= bound.size_merged, "seed {seed}: {bound:?}");
            prop_assert!(real.epsilon >= bound.epsilon, "seed {seed}: {bound:?}");
            seen.built = true;
            seen.identical |= !info.has_func_id;
            let f = built.func(info.merged);
            let entry = f.block(f.entry());
            seen.demoted =
                entry.insts.iter().filter(|&&i| f.inst(i).opcode == Opcode::Alloca).count();
            if bound.charge == BodyCharge::DryRun {
                seen.dry_built += 1;
                seen.exact += (real.size_merged == bound.size_merged) as usize;
            }
            if bound.rules_out() {
                let interned = m.types.len()..built.types.len();
                seen.dropped_new_types |= !interned.is_empty();
                seen.dropped_slot_types |= interned
                    .map(|k| built.types.get(TyId::from_index(k)))
                    .any(|t| matches!(t, Type::Ptr { .. }));
            }
            discard(&mut built, &info);
        }
        seen.ruled_out |= bound.rules_out();
        prop_assert_eq!(built.types.len(), m.types.len(), "seed {}: store length", seed);
        for k in 0..m.types.len() {
            let id = TyId::from_index(k);
            prop_assert_eq!(built.types.get(id), m.types.get(id), "seed {}: type {}", seed, k);
        }
    }
    Ok(seen)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    #[test]
    fn bound_never_falls_below_the_real_delta(seed in 0u64..u64::MAX) {
        check(seed)?;
    }
}

/// A fixed sweep: the same property, plus proof that the generator
/// reaches every shape the bound's terms are about, and that the dry run
/// is tight: almost every merged size it charges is the real one.
#[test]
fn bound_holds_across_the_generated_shapes() {
    let names = [
        "built",
        "ruled out",
        "discard dropped new types",
        "identical pair",
        "external side",
        "address-taken side",
        "void vs value",
        "br-only block",
        "phi",
        "commutative swap",
        "mismatched labels",
        "void vs value built",
        "dry run",
        "demotion",
        "discard dropped a demotion slot type",
        "earlier region's value used later",
        "return cast of a demoted value",
        "demoted invoke or call",
        "early exit (one-armed join)",
        "unreachable chain with demotion",
        "phi fallback",
        "landing-selector fallback",
    ];
    let mut tally = [0usize; 22];
    let (mut dry_built, mut exact) = (0usize, 0usize);
    for seed in 0..800u64 {
        let seen = check(seed).unwrap_or_else(|e| panic!("{e:?}"));
        let Pair { s1, s2, dead, .. } = pair_module(seed);
        let sides = [&s1, &s2];
        let diamonds: Vec<&Diamond> = sides.iter().filter_map(|s| s.diamond.as_ref()).collect();
        let swapped_step = s1.steps.iter().zip(&s2.steps).any(|(a, b)| a.rhs_first != b.rhs_first);
        let back = |s: &Shape| {
            s.steps.iter().chain(&s.tail).any(|st| matches!(st.operand, Operand::Back(_)))
        };
        let calls = (s1.call, s2.call);
        let demoted = seen.built && seen.demoted > 0;
        dry_built += seen.dry_built;
        exact += seen.exact;
        let marks = [
            seen.built,
            seen.ruled_out,
            seen.dropped_new_types,
            seen.identical,
            sides.iter().any(|s| s.external),
            sides.iter().any(|s| s.address_taken),
            s1.returns_value != s2.returns_value,
            seen.built && diamonds.iter().any(|d| d.then_trivial),
            seen.built && diamonds.iter().any(|d| d.phi),
            swapped_step,
            diamonds.len() == 2 && diamonds[0].swap_targets != diamonds[1].swap_targets,
            seen.built && s1.returns_value != s2.returns_value,
            seen.dry_run,
            demoted,
            seen.dropped_slot_types,
            demoted && s1.steps.len() != s2.steps.len() && sides.iter().any(|s| back(s)),
            demoted && sides.iter().any(|s| s.returns_value && s.ret_zext && !s.wide),
            demoted && matches!(calls, (Some(a), Some(b)) if a.invoke != b.invoke),
            seen.built && diamonds.iter().any(|d| d.else_exits),
            demoted && dead,
            seen.fallback && diamonds.iter().any(|d| d.phi && !d.else_exits),
            seen.fallback
                && matches!(calls, (Some(a), Some(b)) if a.invoke && b.invoke && a.clause != b.clause),
        ];
        for (t, hit) in tally.iter_mut().zip(marks) {
            *t += hit as usize;
        }
    }
    for (name, &count) in names.iter().zip(&tally) {
        assert!(count > 0, "the generator never produced: {name} ({tally:?})");
    }
    // The dry run charges what codegen emits. The terms it leaves out (a
    // `br` looping on its own otherwise empty block, selects over fresh
    // operand bitcasts) never arise here, so every size is exact.
    assert!(dry_built > 0 && exact == dry_built, "{exact} of {dry_built} dry-run sizes are exact");
}
