//! Utility transformation passes.
//!
//! Merge codegen cleans every merged body with [`thread_trivial_blocks`]
//! and [`remove_unreachable_blocks`], and the merge pass's optional
//! canonicalization runs [`canonicalize_block_order`].

use crate::cfg;
use crate::function::Function;
use crate::inst::{ExtraData, Opcode};
use crate::value::{InstId, Value};

/// Removes blocks unreachable from the entry. Returns how many were
/// removed.
pub fn remove_unreachable_blocks(func: &mut Function) -> usize {
    if func.is_declaration() {
        return 0;
    }
    let dead = cfg::unreachable_blocks(func);
    let n = dead.len();
    for b in &dead {
        // Drop φ-incoming entries that referenced the dead block.
        let all: Vec<InstId> = func.inst_ids();
        for i in all {
            let inst = func.inst(i);
            if inst.opcode != Opcode::Phi {
                continue;
            }
            let ExtraData::Phi { incoming } = &inst.extra else { continue };
            if !incoming.contains(b) {
                continue;
            }
            let keep: Vec<usize> =
                incoming.iter().enumerate().filter(|(_, bb)| *bb != b).map(|(k, _)| k).collect();
            let inst = func.inst_mut(i);
            let ExtraData::Phi { incoming } = &mut inst.extra else { continue };
            let new_ops: Vec<Value> = keep.iter().map(|&k| inst.operands[k]).collect();
            let new_inc = keep.iter().map(|&k| incoming[k]).collect();
            inst.operands = new_ops;
            *incoming = new_inc;
        }
    }
    for b in dead {
        func.remove_block(b);
    }
    n
}

/// Threads trivial forwarding blocks: a block whose entire body is a single
/// unconditional `br` is removed and every branch to it retargeted at its
/// destination. Entry blocks and self-loops are left alone. Only valid on
/// φ-free functions (the merged functions FMSA generates are φ-free by
/// construction); functions containing φs are returned unchanged.
///
/// Returns the number of blocks threaded away.
pub fn thread_trivial_blocks(func: &mut Function) -> usize {
    if func.is_declaration() {
        return 0;
    }
    let has_phi = func.inst_ids().iter().any(|&i| func.inst(i).opcode == Opcode::Phi);
    if has_phi {
        return 0;
    }
    let mut threaded = 0;
    loop {
        let entry = func.entry();
        let mut victim: Option<(crate::value::BlockId, crate::value::BlockId)> = None;
        for b in func.block_ids() {
            if b == entry {
                continue;
            }
            let insts = &func.block(b).insts;
            if insts.len() != 1 {
                continue;
            }
            let only = func.inst(insts[0]);
            if only.opcode != Opcode::Br {
                continue;
            }
            let Some(target) = only.operands[0].as_block() else { continue };
            if target == b || target == entry {
                // Self-loops stay; retargeting into the entry block would
                // give it predecessors, which the verifier forbids.
                continue;
            }
            victim = Some((b, target));
            break;
        }
        let Some((b, target)) = victim else { break };
        func.replace_all_uses(Value::Block(b), Value::Block(target));
        func.remove_block(b);
        threaded += 1;
    }
    threaded
}

/// Canonicalizes the instruction order inside every block of `func`
/// without changing semantics: instructions are re-emitted in a
/// dependency-respecting topological order with deterministic
/// (opcode, type, original position) tie-breaking.
///
/// This implements the FMSA paper's stated future work — "allowing
/// instruction reordering to maximize the number of matches": two
/// functions whose blocks compute the same operations in different
/// textual orders linearize to identical sequences after
/// canonicalization, so the aligner matches more columns.
///
/// Constraints preserved:
/// * data dependencies (an instruction follows its in-block operands);
/// * memory/side-effect order (loads, stores, calls, and other effectful
///   instructions keep their relative order via a fence chain);
/// * the terminator stays last; a leading `landingpad` stays first.
///
/// Returns the number of blocks whose order changed.
pub fn canonicalize_block_order(func: &mut Function) -> usize {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    if func.is_declaration() {
        return 0;
    }
    let mut changed = 0;
    for b in func.block_ids().collect::<Vec<_>>() {
        let insts = func.block(b).insts.clone();
        if insts.len() <= 2 {
            continue;
        }
        let n = insts.len();
        let index_of: std::collections::HashMap<InstId, usize> =
            insts.iter().enumerate().map(|(k, &i)| (i, k)).collect();
        // Build the dependency edges: operand defs in the same block, plus
        // a chain through side-effecting instructions.
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut last_effect: Option<usize> = None;
        for (k, &iid) in insts.iter().enumerate() {
            let inst = func.inst(iid);
            for op in &inst.operands {
                if let Value::Inst(d) = op {
                    if let Some(&dk) = index_of.get(d) {
                        if dk != k {
                            preds[k].push(dk);
                        }
                    }
                }
            }
            let effectful = inst.opcode.has_side_effects() || inst.opcode == Opcode::Load;
            if effectful {
                if let Some(prev) = last_effect {
                    preds[k].push(prev);
                }
                last_effect = Some(k);
            }
        }
        // Pin the boundaries: the terminator follows everything, and a
        // leading landingpad precedes everything.
        let term = n - 1;
        if func.inst(insts[term]).is_terminator() {
            preds[term].extend(0..term);
        }
        if func.inst(insts[0]).opcode == Opcode::LandingPad {
            for p in preds.iter_mut().skip(1) {
                p.push(0);
            }
        }
        let mut indegree = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (k, ps) in preds.iter().enumerate() {
            for &p in ps {
                succs[p].push(k);
                indegree[k] += 1;
            }
        }
        // Kahn with a deterministic priority: opcode, then result type,
        // then original position.
        let key = |k: usize| {
            let inst = func.inst(insts[k]);
            (inst.opcode.index(), inst.ty.index(), k)
        };
        let mut heap: BinaryHeap<Reverse<(usize, usize, usize, usize)>> = BinaryHeap::new();
        for (k, &deg) in indegree.iter().enumerate() {
            if deg == 0 {
                let (o, t, p) = key(k);
                heap.push(Reverse((o, t, p, k)));
            }
        }
        let mut order: Vec<usize> = Vec::with_capacity(n);
        while let Some(Reverse((_, _, _, k))) = heap.pop() {
            order.push(k);
            for &s in &succs[k] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    let (o, t, p) = key(s);
                    heap.push(Reverse((o, t, p, s)));
                }
            }
        }
        debug_assert_eq!(order.len(), n, "dependency graph is acyclic");
        let new_insts: Vec<InstId> = order.iter().map(|&k| insts[k]).collect();
        if new_insts != insts {
            changed += 1;
            func.block_mut(b).insts = new_insts;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::IntPredicate;
    use crate::module::Module;
    use crate::value::FuncId;
    use crate::verifier::verify_module;

    /// Builds `f(n) = n > 0 ? n : -n` using an explicit phi at the join.
    fn phi_module() -> (Module, FuncId) {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let f = m.create_function("abs", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.block("entry");
        let neg = b.block("neg");
        let join = b.block("join");
        b.switch_to(entry);
        let c = b.icmp(IntPredicate::Sgt, Value::Param(0), b.const_i32(0));
        b.condbr(c, join, neg);
        b.switch_to(neg);
        let negated = b.sub(b.const_i32(0), Value::Param(0));
        b.br(join);
        b.switch_to(join);
        let phi = b.phi(i32t, vec![(Value::Param(0), entry), (negated, neg)]);
        b.ret(Some(phi));
        (m, f)
    }

    #[test]
    fn threading_removes_forwarding_blocks() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![m.types.i1()]);
        let f = m.create_function("f", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.block("entry");
        let fwd = b.block("fwd");
        let dest = b.block("dest");
        let other = b.block("other");
        b.switch_to(entry);
        b.condbr(Value::Param(0), fwd, other);
        b.switch_to(fwd);
        b.br(dest);
        b.switch_to(dest);
        b.ret(Some(b.const_i32(1)));
        b.switch_to(other);
        b.ret(Some(b.const_i32(2)));
        let n = thread_trivial_blocks(m.func_mut(f));
        assert_eq!(n, 1);
        assert!(!m.func(f).is_live_block(fwd));
        assert_eq!(m.func(f).successors(entry), vec![dest, other]);
        assert!(verify_module(&m).is_empty(), "{:?}", verify_module(&m));
    }

    #[test]
    fn threading_skips_entry_and_self_loops() {
        let mut m = Module::new("m");
        let void = m.types.void();
        let fn_ty = m.types.func(void, vec![]);
        let f = m.create_function("f", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.block("entry");
        let looper = b.block("looper");
        b.switch_to(entry);
        b.br(looper);
        b.switch_to(looper);
        b.br(looper); // self loop, must not be threaded
        assert_eq!(thread_trivial_blocks(m.func_mut(f)), 0);
        assert!(m.func(f).is_live_block(looper));
    }

    #[test]
    fn unreachable_blocks_removed_and_phis_pruned() {
        let (mut m, f) = phi_module();
        let i32t = m.types.i32();
        // Add a dead block that feeds the phi, then prune.
        let dead = m.func_mut(f).add_block("dead");
        let join = m
            .func(f)
            .block_ids()
            .find(|b| m.func(f).block(*b).name == "join")
            .expect("join exists");
        {
            let mut b = FuncBuilder::new(&mut m, f);
            b.switch_to(dead);
            b.br(join);
        }
        // Register the dead block as a phi input.
        let phi = m
            .func(f)
            .inst_ids()
            .into_iter()
            .find(|&i| m.func(f).inst(i).opcode == Opcode::Phi)
            .expect("phi exists");
        {
            let inst = m.func_mut(f).inst_mut(phi);
            inst.operands.push(Value::ConstInt { ty: i32t, bits: 9 });
            let ExtraData::Phi { incoming } = &mut inst.extra else { panic!("phi extra") };
            incoming.push(dead);
        }
        let removed = remove_unreachable_blocks(m.func_mut(f));
        assert_eq!(removed, 1);
        let errs = verify_module(&m);
        assert!(errs.is_empty(), "{errs:?}");
        let inst = m.func(f).inst(phi);
        assert_eq!(inst.operands.len(), 2, "dead incoming edge pruned");
    }
}

#[cfg(test)]
mod reorder_tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::module::Module;
    use crate::value::Value;
    use crate::verifier::verify_module;

    /// Two blocks computing the same thing with swapped independent
    /// instruction order canonicalize to the same order.
    #[test]
    fn canonicalization_is_confluent() {
        let build = |swap: bool| -> Module {
            let mut m = Module::new("m");
            let i32t = m.types.i32();
            let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
            let f = m.create_function("f", fn_ty);
            let mut b = FuncBuilder::new(&mut m, f);
            let e = b.block("entry");
            b.switch_to(e);
            // Two independent computations, emitted in either order.
            let (x, y) = if swap {
                let y = b.mul(Value::Param(1), b.const_i32(7));
                let x = b.add(Value::Param(0), b.const_i32(3));
                (x, y)
            } else {
                let x = b.add(Value::Param(0), b.const_i32(3));
                let y = b.mul(Value::Param(1), b.const_i32(7));
                (x, y)
            };
            let z = b.xor(x, y);
            b.ret(Some(z));
            m
        };
        let mut m1 = build(false);
        let mut m2 = build(true);
        let f1 = m1.func_ids()[0];
        let f2 = m2.func_ids()[0];
        canonicalize_block_order(m1.func_mut(f1));
        canonicalize_block_order(m2.func_mut(f2));
        let ops1: Vec<_> =
            m1.func(f1).inst_ids().iter().map(|&i| m1.func(f1).inst(i).opcode).collect();
        let ops2: Vec<_> =
            m2.func(f2).inst_ids().iter().map(|&i| m2.func(f2).inst(i).opcode).collect();
        assert_eq!(ops1, ops2, "canonical orders agree");
        assert!(verify_module(&m1).is_empty());
        assert!(verify_module(&m2).is_empty());
    }

    #[test]
    fn memory_order_is_preserved() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![]);
        let f = m.create_function("f", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let slot = b.alloca(i32t);
        b.store(b.const_i32(1), slot);
        b.store(b.const_i32(2), slot);
        let v = b.load(slot);
        b.ret(Some(v));
        canonicalize_block_order(m.func_mut(f));
        assert!(verify_module(&m).is_empty());
        // Behaviour check: the second store must still win.
        use fmsa_ir_self_test::run_expect;
        run_expect(&m, "f", 2);
    }

    // Tiny local interpreter shim for the memory-order test (the real
    // interpreter lives in fmsa-interp, which fmsa-ir cannot depend on).
    mod fmsa_ir_self_test {
        use crate::inst::Opcode;
        use crate::module::Module;
        use crate::value::Value;

        /// Executes a single-block alloca/store/load/ret function well
        /// enough to observe store ordering.
        pub fn run_expect(m: &Module, name: &str, expect: u64) {
            let f = m.func_by_name(name).expect("exists");
            let func = m.func(f);
            let mut mem: std::collections::HashMap<crate::value::InstId, u64> =
                std::collections::HashMap::new();
            let mut vals: std::collections::HashMap<crate::value::InstId, u64> =
                std::collections::HashMap::new();
            for iid in func.inst_ids() {
                let inst = func.inst(iid);
                match inst.opcode {
                    Opcode::Alloca => {
                        mem.insert(iid, 0);
                    }
                    Opcode::Store => {
                        let Value::ConstInt { bits, .. } = inst.operands[0] else {
                            panic!("const store")
                        };
                        let Value::Inst(slot) = inst.operands[1] else { panic!("slot") };
                        mem.insert(slot, bits);
                    }
                    Opcode::Load => {
                        let Value::Inst(slot) = inst.operands[0] else { panic!("slot") };
                        vals.insert(iid, mem[&slot]);
                    }
                    Opcode::Ret => {
                        let Value::Inst(v) = inst.operands[0] else { panic!("ret") };
                        assert_eq!(vals[&v], expect);
                        return;
                    }
                    _ => {}
                }
            }
            panic!("no ret executed");
        }
    }

    #[test]
    fn terminator_stays_last_and_landingpad_first() {
        use crate::inst::LandingPadClause;
        let mut m = Module::new("m");
        let void = m.types.void();
        let i64t = m.types.i64();
        let throw_ty = m.types.func(void, vec![i64t]);
        let thrower = m.create_function("thrower", throw_ty);
        let fn_ty = m.types.func(void, vec![]);
        let f = m.create_function("f", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.block("entry");
        let normal = b.block("normal");
        let lpad = b.block("lpad");
        b.switch_to(entry);
        b.invoke(thrower, vec![b.const_i64(1)], normal, lpad);
        b.switch_to(normal);
        b.ret(None);
        b.switch_to(lpad);
        let pad = b.landingpad(vec![LandingPadClause::Catch("x".into())], false);
        b.resume(pad);
        canonicalize_block_order(m.func_mut(f));
        let errs = verify_module(&m);
        assert!(errs.is_empty(), "{errs:?}");
        let func = m.func(f);
        assert!(func.is_landing_block(lpad), "pad still first");
    }
}
