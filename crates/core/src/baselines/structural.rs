//! The state-of-the-art baseline ("SOA"): structural function merging of
//! von Koch et al., *Exploiting function similarity for code size
//! reduction*, LCTES 2014.
//!
//! "Two functions are structurally similar if both their function types are
//! equivalent and their CFGs isomorphic. ... their technique also requires
//! that corresponding basic blocks have exactly the same number of
//! instructions and that corresponding instructions must have equivalent
//! resulting types." (§VI-A)
//!
//! Implementation strategy: candidates are bucketed by a shape key
//! (signature + CFG skeleton + per-block instruction counts). For a
//! candidate pair the lock-step positional correspondence *is* the
//! alignment — matched where instructions are equivalent, mismatched
//! otherwise — so code generation reuses the FMSA merger. This reproduces
//! von Koch's behaviour for pairs (switch-on-identifier over differing
//! instructions becomes the equivalent two-way diamond) while inheriting
//! the verified codegen and profitability machinery. The paper's
//! observation that SOA-merged functions cannot be merged again (their
//! signatures change) emerges naturally: the merged function gains an
//! `i1` parameter and leaves the original shape class.

use crate::linearize::{linearize, Entry};
use crate::merge::{discard, merge_pair_aligned, MergeConfig};
use crate::profitability::evaluate;
use crate::thunks::commit_merge;
use fmsa_align::{Alignment, Step};
use fmsa_ir::{cfg, FuncId, Module, Opcode};
use fmsa_target::{CostModel, TargetArch};
use std::collections::HashMap;

/// Statistics of one SOA run.
#[derive(Debug, Clone, Default)]
pub struct SoaStats {
    /// Committed pairwise merges.
    pub merges: usize,
    /// Merge attempts (including discarded unprofitable ones).
    pub attempted: usize,
    /// Module size before, in cost-model bytes.
    pub size_before: u64,
    /// Module size after.
    pub size_after: u64,
}

impl SoaStats {
    /// Code-size reduction achieved, in percent.
    pub fn reduction_percent(&self) -> f64 {
        fmsa_target::reduction_percent(self.size_before, self.size_after)
    }
}

/// Shape key: functions can only be structurally similar if these agree.
fn shape_key(module: &Module, f: FuncId) -> Option<Vec<u64>> {
    let func = module.func(f);
    if func.is_declaration() {
        return None;
    }
    let rpo = cfg::reverse_post_order(func);
    let index: HashMap<_, _> = rpo.iter().enumerate().map(|(k, &b)| (b, k as u64)).collect();
    let mut key = vec![func.fn_ty().index() as u64, rpo.len() as u64];
    for &b in &rpo {
        let block = func.block(b);
        key.push(block.insts.len() as u64);
        let term = func.terminator(b)?;
        key.push(func.inst(term).opcode as u64);
        for s in func.successors(b) {
            key.push(*index.get(&s)?);
        }
        key.push(u64::MAX); // separator
    }
    Some(key)
}

/// Builds the lock-step alignment of two shape-identical functions, or
/// `None` if the pair violates the structural preconditions after all
/// (label kinds must correspond; φ-nodes must match positionally).
fn lockstep_alignment(
    module: &Module,
    f1: FuncId,
    f2: FuncId,
    seq1: &[Entry],
    seq2: &[Entry],
) -> Option<Alignment> {
    if seq1.len() != seq2.len() {
        return None;
    }
    let ctx = crate::equivalence::EquivCtx::new(module, module.func(f1), module.func(f2));
    let mut steps = Vec::with_capacity(seq1.len());
    for (k, (e1, e2)) in seq1.iter().zip(seq2).enumerate() {
        match (e1, e2) {
            (Entry::Label(_), Entry::Label(_)) => {
                if !ctx.entries_equivalent(e1, e2) {
                    return None; // e.g. landing pad vs normal block
                }
                steps.push(Step::Both { i: k, j: k, matched: true });
            }
            (Entry::Inst(i1), Entry::Inst(i2)) => {
                let matched = ctx.entries_equivalent(e1, e2);
                if !matched {
                    // Differing instructions are allowed, but von Koch
                    // requires "corresponding instructions must have
                    // equivalent resulting types", and a φ or terminator
                    // mismatch would break the isomorphism.
                    let in1 = module.func(f1).inst(*i1);
                    let in2 = module.func(f2).inst(*i2);
                    if in1.opcode == Opcode::Phi || in2.opcode == Opcode::Phi {
                        return None;
                    }
                    if in1.opcode.is_terminator() != in2.opcode.is_terminator() {
                        return None;
                    }
                    if !module.types.can_lossless_bitcast(in1.ty, in2.ty) {
                        return None;
                    }
                }
                steps.push(Step::Both { i: k, j: k, matched });
            }
            _ => return None,
        }
    }
    Some(Alignment { steps, score: 0 })
}

/// Runs the SOA baseline over `module` for `arch`.
pub fn run_soa(module: &mut Module, arch: TargetArch) -> SoaStats {
    let cm = CostModel::new(arch);
    let mut stats = SoaStats { size_before: cm.module_size(module), ..SoaStats::default() };
    let config = MergeConfig::default();
    loop {
        // (Re)bucket by shape; merged functions change shape, so the loop
        // reaches a fixed point quickly.
        let mut buckets: HashMap<Vec<u64>, Vec<FuncId>> = HashMap::new();
        for f in module.func_ids() {
            if let Some(key) = shape_key(module, f) {
                buckets.entry(key).or_default().push(f);
            }
        }
        let mut keys: Vec<&Vec<u64>> = buckets.keys().collect();
        keys.sort();
        let mut committed = false;
        'outer: for key in keys {
            let group = &buckets[key];
            if group.len() < 2 {
                continue;
            }
            for (ai, &a) in group.iter().enumerate() {
                for &b in &group[ai + 1..] {
                    if !module.is_live(a) || !module.is_live(b) {
                        continue;
                    }
                    stats.attempted += 1;
                    let seq1 = linearize(module.func(a));
                    let seq2 = linearize(module.func(b));
                    let Some(al) = lockstep_alignment(module, a, b, &seq1, &seq2) else {
                        continue;
                    };
                    let Ok(info) = merge_pair_aligned(module, a, b, seq1, seq2, al, &config) else {
                        continue;
                    };
                    let report = evaluate(module, &cm, &info);
                    if !report.is_profitable() {
                        discard(module, &info);
                        continue;
                    }
                    if commit_merge(module, &info).is_err() {
                        // The failed commit may have rewritten callers
                        // with new cast types: the merge's types stay.
                        module.remove_function(info.merged);
                        continue;
                    }
                    stats.merges += 1;
                    committed = true;
                    continue 'outer;
                }
            }
        }
        if !committed {
            break;
        }
    }
    stats.size_after = cm.module_size(module);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmsa_ir::{FuncBuilder, IntPredicate, Value};

    /// Same CFG and signature, one differing opcode in the body — the
    /// classic SOA-mergeable pair.
    fn soa_pair(m: &mut Module) -> (FuncId, FuncId) {
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
        let mut out = Vec::new();
        for (name, add) in [("sa", true), ("sb", false)] {
            let f = m.create_function(name, fn_ty);
            let mut b = FuncBuilder::new(m, f);
            let e = b.block("entry");
            let t = b.block("t");
            let el = b.block("e");
            b.switch_to(e);
            let mut v = Value::Param(0);
            for k in 0..20 {
                v = b.mul(v, Value::Param(1));
                v = b.xor(v, b.const_i32(k));
            }
            let d = if add { b.add(v, Value::Param(1)) } else { b.sub(v, Value::Param(1)) };
            let c = b.icmp(IntPredicate::Sgt, d, b.const_i32(0));
            b.condbr(c, t, el);
            b.switch_to(t);
            b.ret(Some(d));
            b.switch_to(el);
            let n = b.sub(b.const_i32(0), d);
            b.ret(Some(n));
            out.push(f);
        }
        (out[0], out[1])
    }

    #[test]
    fn merges_same_cfg_pair() {
        let mut m = Module::new("m");
        soa_pair(&mut m);
        let stats = run_soa(&mut m, TargetArch::X86_64);
        assert_eq!(stats.merges, 1, "{stats:?}");
        assert!(stats.size_after < stats.size_before);
        assert!(fmsa_ir::verify_module(&m).is_empty(), "{:?}", fmsa_ir::verify_module(&m));
    }

    #[test]
    fn rejects_different_cfgs() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        // One-block function.
        let a = m.create_function("a", fn_ty);
        {
            let mut b = FuncBuilder::new(&mut m, a);
            let e = b.block("entry");
            b.switch_to(e);
            let v = b.add(Value::Param(0), b.const_i32(1));
            b.ret(Some(v));
        }
        // Two-block function computing the same thing.
        let c = m.create_function("c", fn_ty);
        {
            let mut b = FuncBuilder::new(&mut m, c);
            let e = b.block("entry");
            let x = b.block("x");
            b.switch_to(e);
            b.br(x);
            b.switch_to(x);
            let v = b.add(Value::Param(0), b.const_i32(1));
            b.ret(Some(v));
        }
        let stats = run_soa(&mut m, TargetArch::X86_64);
        assert_eq!(stats.merges, 0, "different CFG shapes must not merge");
    }

    #[test]
    fn rejects_different_signatures() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let i64t = m.types.i64();
        for (name, ty) in [("a", i32t), ("c", i64t)] {
            let fn_ty = m.types.func(ty, vec![ty]);
            let f = m.create_function(name, fn_ty);
            let mut b = FuncBuilder::new(&mut m, f);
            let e = b.block("entry");
            b.switch_to(e);
            let mut v = Value::Param(0);
            for _ in 0..8 {
                v = b.add(v, v);
            }
            b.ret(Some(v));
        }
        let stats = run_soa(&mut m, TargetArch::X86_64);
        assert_eq!(stats.merges, 0, "different signatures must not merge (SOA limitation)");
    }

    #[test]
    fn small_unprofitable_pairs_skipped() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        for (name, c) in [("t1", 1), ("t2", 2)] {
            let f = m.create_function(name, fn_ty);
            let mut b = FuncBuilder::new(&mut m, f);
            let e = b.block("entry");
            b.switch_to(e);
            let v = b.add(Value::Param(0), b.const_i32(c));
            b.ret(Some(v));
        }
        let stats = run_soa(&mut m, TargetArch::X86_64);
        assert_eq!(stats.merges, 0, "tiny pair with a diff is not profitable: {stats:?}");
    }
}
