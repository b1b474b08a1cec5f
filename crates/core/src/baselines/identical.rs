//! Identical function merging — the LLVM `MergeFunctions` baseline.
//!
//! "This optimization is only flexible enough to accommodate simple type
//! mismatches provided they can be bitcast in a lossless way. Its
//! simplicity allows for an efficient exploration approach based on
//! computing the hash of the functions and then using a tree structure to
//! group equivalent functions based on their hash values." (§VI-A)
//!
//! This implementation hashes a structural summary of every defined
//! function, groups by hash, confirms equality pairwise within each
//! bucket, and folds duplicates onto a representative (deleting them or
//! leaving thunks, like the FMSA commit machinery). A deleted duplicate's
//! calls are rewritten in the callers a [`CallSiteIndex`] names, not by a
//! scan of the whole module, so the prepass is linear in the module
//! rather than in folds × functions.

use crate::callsites::CallSiteIndex;
use crate::linearize::{linearize, Entry};
use crate::thunks::{can_delete, make_thunk, rewrite_calls_in, CallRewrite};
use fmsa_ir::{BlockId, ExtraData, FuncId, InstId, Module, Value};
use fmsa_target::{CostModel, TargetArch};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Statistics of one identical-merging run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdenticalStats {
    /// Number of functions folded onto a representative (the paper's
    /// "merge operations" count for Identical).
    pub merges: usize,
    /// Module size before, in cost-model bytes.
    pub size_before: u64,
    /// Module size after.
    pub size_after: u64,
}

impl IdenticalStats {
    /// Code-size reduction achieved, in percent.
    pub fn reduction_percent(&self) -> f64 {
        fmsa_target::reduction_percent(self.size_before, self.size_after)
    }
}

/// Runs identical-function merging over `module` for `arch`.
pub fn run_identical(module: &mut Module, arch: TargetArch) -> IdenticalStats {
    let cm = CostModel::new(arch);
    let mut stats =
        IdenticalStats { size_before: cm.module_size(module), ..IdenticalStats::default() };
    // Bucket by structural hash.
    let mut buckets: HashMap<u64, Vec<FuncId>> = HashMap::new();
    for f in module.func_ids() {
        if module.func(f).is_declaration() {
            continue;
        }
        buckets.entry(structural_hash(module, f)).or_default().push(f);
    }
    let mut hashes: Vec<u64> = buckets.keys().copied().collect();
    hashes.sort_unstable();
    // Built at the first fold, so a module without duplicates pays
    // nothing for it.
    let mut sites: Option<CallSiteIndex> = None;
    for h in hashes {
        let group = &buckets[&h];
        if group.len() < 2 {
            continue;
        }
        // Fold equal members onto the first (hash collisions are verified
        // away by the exact comparison).
        let mut representatives: Vec<FuncId> = Vec::new();
        for &f in group {
            match representatives.iter().find(|&&r| structurally_equal(module, r, f)) {
                Some(&rep) => {
                    let sites = sites.get_or_insert_with(|| CallSiteIndex::build(module));
                    fold(module, sites, f, rep);
                    stats.merges += 1;
                }
                None => representatives.push(f),
            }
        }
    }
    stats.size_after = cm.module_size(module);
    stats
}

/// Folds duplicate `dup` onto `rep`: rewrites its call sites, then
/// deletes the duplicate or leaves a thunk, and keeps `sites` in step
/// with the module. An identity rewrite interns no types, so callers can
/// be rewritten one by one with no plan across them.
fn fold(module: &mut Module, sites: &mut CallSiteIndex, dup: FuncId, rep: FuncId) {
    let nparams = module.func(dup).params().len();
    let ret = module.func(dup).ret_ty(&module.types);
    let rw = CallRewrite {
        target: rep,
        merged_param_tys: module.func(rep).params().iter().map(|p| p.ty).collect(),
        map: (0..nparams).collect(),
        func_id: None,
        ret_base: ret,
        ret_orig: ret,
    };
    if can_delete(module, dup) {
        let callers = sites.callers_of(dup);
        let touched =
            rewrite_calls_in(module, dup, &rw, callers).expect("identity rewrite cannot fail");
        for g in touched {
            sites.refresh(module, g);
        }
        module.remove_function(dup);
        sites.remove(dup);
    } else {
        make_thunk(module, dup, &rw).expect("identity thunk cannot fail");
        sites.refresh(module, dup);
    }
}

/// A structural hash that is invariant to names and arena numbering but
/// sensitive to everything the equality check compares.
pub fn structural_hash(module: &Module, f: FuncId) -> u64 {
    let func = module.func(f);
    let mut h = DefaultHasher::new();
    func.fn_ty().hash(&mut h);
    let seq = linearize(func);
    let pos = Positions::of(&seq);
    for e in &seq {
        match e {
            Entry::Label(_) => 0u8.hash(&mut h),
            Entry::Inst(i) => {
                let inst = func.inst(*i);
                1u8.hash(&mut h);
                inst.opcode.hash(&mut h);
                inst.ty.hash(&mut h);
                hash_extra(&inst.extra, &mut h);
                for op in &inst.operands {
                    hash_operand(*op, &pos, &mut h);
                }
            }
        }
    }
    h.finish()
}

/// Each entry's position in a function's linearization, in tables indexed
/// by inst and block id; `None` for an id outside it (an unreachable
/// block, or an id the function does not have).
#[derive(Default)]
struct Positions {
    insts: Vec<Option<usize>>,
    labels: Vec<Option<usize>>,
}

impl Positions {
    fn of(seq: &[Entry]) -> Positions {
        let mut pos = Positions::default();
        for (k, &e) in seq.iter().enumerate() {
            let (table, id) = match e {
                Entry::Inst(i) => (&mut pos.insts, i.index()),
                Entry::Label(b) => (&mut pos.labels, b.index()),
            };
            if table.len() <= id {
                table.resize(id + 1, None);
            }
            table[id] = Some(k);
        }
        pos
    }

    fn inst(&self, i: InstId) -> Option<usize> {
        self.insts.get(i.index()).copied().flatten()
    }

    fn label(&self, b: BlockId) -> Option<usize> {
        self.labels.get(b.index()).copied().flatten()
    }
}

fn hash_extra(extra: &ExtraData, h: &mut DefaultHasher) {
    match extra {
        ExtraData::None => 0u8.hash(h),
        ExtraData::ICmp(p) => {
            1u8.hash(h);
            p.hash(h);
        }
        ExtraData::FCmp(p) => {
            2u8.hash(h);
            p.hash(h);
        }
        ExtraData::Alloca { allocated } => {
            3u8.hash(h);
            allocated.hash(h);
        }
        ExtraData::Gep { source_elem } => {
            4u8.hash(h);
            source_elem.hash(h);
        }
        ExtraData::Phi { incoming } => {
            5u8.hash(h);
            incoming.len().hash(h);
        }
        ExtraData::LandingPad { clauses, cleanup } => {
            6u8.hash(h);
            cleanup.hash(h);
            clauses.hash(h);
        }
        ExtraData::AggIndices(ix) => {
            7u8.hash(h);
            ix.hash(h);
        }
    }
}

fn hash_operand(op: Value, pos: &Positions, h: &mut DefaultHasher) {
    match op {
        Value::Inst(i) => {
            0u8.hash(h);
            pos.inst(i).hash(h);
        }
        Value::Block(b) => {
            1u8.hash(h);
            pos.label(b).hash(h);
        }
        Value::Param(p) => {
            2u8.hash(h);
            p.hash(h);
        }
        Value::Func(f) => {
            3u8.hash(h);
            f.hash(h);
        }
        other => {
            4u8.hash(h);
            other.hash(h);
        }
    }
}

/// Exact structural equality: same signature and the same linearized
/// sequence with congruent operands (positions instead of arena ids).
pub fn structurally_equal(module: &Module, a: FuncId, b: FuncId) -> bool {
    let fa = module.func(a);
    let fb = module.func(b);
    if fa.fn_ty() != fb.fn_ty() {
        return false;
    }
    let sa = linearize(fa);
    let sb = linearize(fb);
    if sa.len() != sb.len() {
        return false;
    }
    let (pa, pb) = (Positions::of(&sa), Positions::of(&sb));
    for (ea, eb) in sa.iter().zip(&sb) {
        match (ea, eb) {
            (Entry::Label(_), Entry::Label(_)) => {}
            (Entry::Inst(x), Entry::Inst(y)) => {
                let ix = fa.inst(*x);
                let iy = fb.inst(*y);
                if ix.opcode != iy.opcode
                    || ix.ty != iy.ty
                    || ix.operands.len() != iy.operands.len()
                {
                    return false;
                }
                // Extras must match modulo φ incoming-block renumbering.
                match (&ix.extra, &iy.extra) {
                    (ExtraData::Phi { incoming: xa }, ExtraData::Phi { incoming: xb }) => {
                        if xa.len() != xb.len() {
                            return false;
                        }
                        for (&ba, &bb) in xa.iter().zip(xb) {
                            if pa.label(ba) != pb.label(bb) {
                                return false;
                            }
                        }
                    }
                    (xa, xb) => {
                        if xa != xb {
                            return false;
                        }
                    }
                }
                for (&oa, &ob) in ix.operands.iter().zip(&iy.operands) {
                    let congruent = match (oa, ob) {
                        (Value::Inst(p), Value::Inst(q)) => pa.inst(p) == pb.inst(q),
                        (Value::Block(p), Value::Block(q)) => pa.label(p) == pb.label(q),
                        (x, y) => x == y,
                    };
                    if !congruent {
                        return false;
                    }
                }
            }
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmsa_ir::{FuncBuilder, Opcode};

    fn add_clone(m: &mut Module, name: &str, constant: i32) -> FuncId {
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let f = m.create_function(name, fn_ty);
        let mut b = FuncBuilder::new(m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let v = b.add(Value::Param(0), b.const_i32(constant));
        let w = b.mul(v, Value::Param(0));
        b.ret(Some(w));
        f
    }

    #[test]
    fn exact_clones_fold() {
        let mut m = Module::new("m");
        let a = add_clone(&mut m, "a", 1);
        let b = add_clone(&mut m, "b", 1);
        let c = add_clone(&mut m, "c", 1);
        assert!(structurally_equal(&m, a, b));
        assert_eq!(structural_hash(&m, a), structural_hash(&m, b));
        let stats = run_identical(&mut m, TargetArch::X86_64);
        assert_eq!(stats.merges, 2);
        assert!(stats.size_after < stats.size_before);
        // Only one of the three bodies survives.
        let alive = [a, b, c].iter().filter(|&&f| m.is_live(f)).count();
        assert_eq!(alive, 1);
        assert!(fmsa_ir::verify_module(&m).is_empty());
    }

    #[test]
    fn different_constants_do_not_fold() {
        let mut m = Module::new("m");
        let a = add_clone(&mut m, "a", 1);
        let b = add_clone(&mut m, "b", 2);
        assert!(!structurally_equal(&m, a, b));
        let stats = run_identical(&mut m, TargetArch::X86_64);
        assert_eq!(stats.merges, 0);
        assert_eq!(stats.size_before, stats.size_after);
    }

    #[test]
    fn call_sites_are_redirected() {
        let mut m = Module::new("m");
        let a = add_clone(&mut m, "a", 1);
        let b = add_clone(&mut m, "b", 1);
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![]);
        let caller = m.create_function("caller", fn_ty);
        {
            let mut bb = FuncBuilder::new(&mut m, caller);
            let e = bb.block("entry");
            bb.switch_to(e);
            let x = bb.call(b, vec![bb.const_i32(5)]);
            bb.ret(Some(x));
        }
        run_identical(&mut m, TargetArch::X86_64);
        // b was folded onto a; caller must now call a.
        let cf = m.func(caller);
        let call =
            cf.inst_ids().into_iter().find(|&i| cf.inst(i).opcode == Opcode::Call).expect("call");
        assert_eq!(cf.inst(call).operands[0], Value::Func(a));
        assert!(!m.is_live(b));
    }

    #[test]
    fn external_duplicates_become_thunks() {
        let mut m = Module::new("m");
        let _a = add_clone(&mut m, "a", 1);
        let b = add_clone(&mut m, "b", 1);
        m.func_mut(b).linkage = fmsa_ir::Linkage::External;
        let stats = run_identical(&mut m, TargetArch::X86_64);
        assert_eq!(stats.merges, 1);
        assert!(m.is_live(b), "external function kept as thunk");
        let bf = m.func(b);
        assert_eq!(bf.inst_count(), 2, "thunk = call + ret");
        assert!(fmsa_ir::verify_module(&m).is_empty());
    }
}
