//! Call-graph update: thunks, call-site rewriting, and deletion of the
//! original functions (paper §III-A and §IV).
//!
//! "After producing the merged function, the bodies of the original
//! functions are replaced by a single call to this new function, creating
//! what is sometimes called a thunk. In some cases, it may also be valid
//! and profitable to completely delete the original functions, remapping
//! all their original calls to the merged function. Two of the key facts
//! that prohibit the complete removal of the original functions are the
//! existence of indirect calls or the possibility of external linkage."

use crate::callsites::CallSiteIndex;
use crate::merge::{
    codegen::{cast_back_in, prepare_cast_tys},
    MergeError, MergeInfo,
};
use fmsa_ir::{FuncId, Inst, InstId, Linkage, Module, Opcode, TyId, Type, TypeStore, Value};

/// How one original function was retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// The function was deleted; all call sites now call the merged
    /// function directly.
    Deleted,
    /// The function body was replaced by a thunk calling the merged
    /// function (external linkage or address-taken).
    Thunk,
}

/// Describes how calls to one original function translate to calls to the
/// merged function.
#[derive(Debug, Clone)]
pub struct CallRewrite {
    /// The merged function to call instead.
    pub target: FuncId,
    /// Types of the merged parameter list.
    pub merged_param_tys: Vec<TyId>,
    /// `map[k]` = merged slot receiving original argument `k`.
    pub map: Vec<usize>,
    /// `(slot, value)` of the function identifier, if present.
    pub func_id: Option<(usize, bool)>,
    /// Merged return type.
    pub ret_base: TyId,
    /// The original function's return type.
    pub ret_orig: TyId,
}

impl CallRewrite {
    /// Builds the rewrite description for one side of a merge.
    pub fn for_side(info: &MergeInfo, first_side: bool) -> CallRewrite {
        let map = if first_side { info.params.map1.clone() } else { info.params.map2.clone() };
        CallRewrite {
            target: info.merged,
            merged_param_tys: info.params.merged_tys.clone(),
            map,
            func_id: info.has_func_id.then_some((0, first_side)),
            ret_base: info.ret.base,
            ret_orig: if first_side { info.ret.ty1 } else { info.ret.ty2 },
        }
    }

    fn build_args(&self, types: &TypeStore, orig_args: &[Value]) -> Vec<Value> {
        let i1 = types.i1();
        let mut out: Vec<Value> =
            self.merged_param_tys.iter().map(|&ty| Value::Undef(ty)).collect();
        if let Some((slot, v)) = self.func_id {
            out[slot] = Value::ConstInt { ty: i1, bits: v as u64 };
        }
        for (k, &a) in orig_args.iter().enumerate() {
            out[self.map[k]] = a;
        }
        out
    }
}

/// Whether `func` may be deleted outright after merging.
pub fn can_delete(module: &Module, func: FuncId) -> bool {
    let f = module.func(func);
    f.linkage == Linkage::Internal && !f.address_taken
}

/// Counts direct call/invoke sites of `func` across the module (used by
/// the profitability `δ` term).
pub fn count_call_sites(module: &Module, func: FuncId) -> usize {
    let mut n = 0;
    for g in module.func_ids() {
        let gf = module.func(g);
        for (_, inst) in gf.iter_insts() {
            if matches!(inst.opcode, Opcode::Call | Opcode::Invoke)
                && inst.operands.first() == Some(&Value::Func(func))
            {
                n += 1;
            }
        }
    }
    n
}

/// Rewrites every direct call/invoke of `from` in the module into a call of
/// the merged function per `rw`. Returns the functions whose bodies were
/// modified (their fingerprints need refreshing).
///
/// # Errors
///
/// Propagates cast construction failures (programming errors guarded by
/// tests).
pub fn rewrite_call_sites(
    module: &mut Module,
    from: FuncId,
    rw: &CallRewrite,
) -> Result<Vec<FuncId>, MergeError> {
    let callers = module.func_ids();
    rewrite_calls_in(module, from, rw, callers)
}

/// [`rewrite_call_sites`] over `callers` only: the identical prepass and
/// [`commit_merge_indexed`] pass [`CallSiteIndex::callers_of`]
/// (ascending, the order a full scan visits them) instead of every
/// function of the module.
pub(crate) fn rewrite_calls_in(
    module: &mut Module,
    from: FuncId,
    rw: &CallRewrite,
    callers: Vec<FuncId>,
) -> Result<Vec<FuncId>, MergeError> {
    let mut touched = Vec::new();
    for g in callers {
        if g == from {
            continue; // the original body is about to be replaced anyway
        }
        let f = module.func(g);
        let call_sites: Vec<InstId> = f
            .iter_insts()
            .filter(|(_, inst)| {
                matches!(inst.opcode, Opcode::Call | Opcode::Invoke)
                    && inst.operands.first() == Some(&Value::Func(from))
            })
            .map(|(i, _)| i)
            .collect();
        if call_sites.is_empty() {
            continue;
        }
        for c in call_sites {
            rewrite_one_call(module, g, c, rw)?;
        }
        touched.push(g);
    }
    Ok(touched)
}

/// Interns the cast container types a side's rewrites/thunk will need —
/// exactly when a result conversion will actually be built (non-void
/// original return that differs from the merged base).
fn prepare_side_casts(types: &mut TypeStore, rw: &CallRewrite) -> Result<(), MergeError> {
    let orig_is_void = matches!(types.get(rw.ret_orig), Type::Void);
    if !orig_is_void && rw.ret_orig != rw.ret_base {
        prepare_cast_tys(types, rw.ret_base, rw.ret_orig)?;
    }
    Ok(())
}

fn rewrite_one_call(
    module: &mut Module,
    g: FuncId,
    c: InstId,
    rw: &CallRewrite,
) -> Result<(), MergeError> {
    prepare_side_casts(&mut module.types, rw)?;
    let (f, types) = module.func_mut_with_types(g);
    let (is_invoke, orig_args, labels) = {
        let inst = f.inst(c);
        let is_invoke = inst.opcode == Opcode::Invoke;
        let arg_end = if is_invoke { inst.operands.len() - 2 } else { inst.operands.len() };
        (is_invoke, inst.operands[1..arg_end].to_vec(), inst.operands[arg_end..].to_vec())
    };
    let mut ops = vec![Value::Func(rw.target)];
    ops.extend(rw.build_args(types, &orig_args));
    ops.extend(labels);
    {
        let inst = f.inst_mut(c);
        inst.operands = ops;
        inst.ty = rw.ret_base;
    }
    // Convert the result back to the original type for existing users.
    let orig_is_void = matches!(types.get(rw.ret_orig), Type::Void);
    if !orig_is_void && rw.ret_orig != rw.ret_base {
        // Snapshot the users of the call result *before* building the cast
        // chain, so the chain's own reference to the call is not rewritten.
        let users: Vec<InstId> = f
            .iter_insts()
            .filter(|&(u, inst)| u != c && inst.operands.contains(&Value::Inst(c)))
            .map(|(u, _)| u)
            .collect();
        let insert_point = if is_invoke {
            // Result conversion must happen on the normal path.
            let inst = f.inst(c);
            let n = inst.operands.len();
            let normal = inst.operands[n - 2].as_block().expect("invoke normal dest");
            match f.block(normal).insts.first().copied() {
                Some(i) => i,
                None => c, // degenerate; keep before terminator
            }
        } else {
            // Insert right after the call: use the next instruction in the
            // block as the anchor (a call is never a terminator, so one
            // exists).
            let parent = f.inst(c).parent;
            let pos =
                f.block(parent).insts.iter().position(|&i| i == c).expect("call in its block");
            f.block(parent).insts[pos + 1]
        };
        let casted =
            cast_back_in(f, types, insert_point, Value::Inst(c), rw.ret_base, rw.ret_orig)?;
        // Point the pre-existing users at the converted value.
        for u in users {
            let inst = f.inst_mut(u);
            for op in &mut inst.operands {
                if *op == Value::Inst(c) {
                    *op = casted;
                }
            }
        }
    }
    Ok(())
}

/// Replaces the body of `orig` with a thunk calling the merged function.
///
/// # Errors
///
/// Propagates cast construction failures.
pub fn make_thunk(module: &mut Module, orig: FuncId, rw: &CallRewrite) -> Result<(), MergeError> {
    prepare_side_casts(&mut module.types, rw)?;
    let (f, types) = module.func_mut_with_types(orig);
    let n_params = f.params().len();
    let ret_orig = rw.ret_orig;
    f.clear_body();
    let entry = f.add_block("entry");
    let param_vals: Vec<Value> = (0..n_params).map(|k| Value::Param(k as u32)).collect();
    let mut ops = vec![Value::Func(rw.target)];
    ops.extend(rw.build_args(types, &param_vals));
    let call = f.append_inst(entry, Inst::new(Opcode::Call, rw.ret_base, ops));
    let void = types.void();
    let orig_is_void = matches!(types.get(ret_orig), Type::Void);
    let ret = if orig_is_void {
        f.append_inst(entry, Inst::new(Opcode::Ret, void, vec![]));
        return Ok(());
    } else {
        f.append_inst(entry, Inst::new(Opcode::Ret, void, vec![Value::Inst(call)]))
    };
    if ret_orig != rw.ret_base {
        let casted = cast_back_in(f, types, ret, Value::Inst(call), rw.ret_base, ret_orig)?;
        f.inst_mut(ret).operands = vec![casted];
    }
    Ok(())
}

/// Result of committing one merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitResult {
    /// What happened to the first original.
    pub first: Disposition,
    /// What happened to the second original.
    pub second: Disposition,
    /// Functions whose bodies changed (rewritten call sites) — their
    /// fingerprints are stale.
    pub touched: Vec<FuncId>,
}

/// Commits a completed merge: rewrites call sites, then deletes each
/// original when legal (internal linkage, address not taken) or turns it
/// into a thunk otherwise. Every function of the module is scanned for
/// call sites; [`commit_merge_indexed`] visits only the indexed callers.
///
/// # Errors
///
/// Propagates cast construction failures; the module may be partially
/// rewritten in that case (tests assert this never happens).
pub fn commit_merge(module: &mut Module, info: &MergeInfo) -> Result<CommitResult, MergeError> {
    commit_sides(module, info, |module, _| module.func_ids())
}

/// [`commit_merge`] that rewrites a deleted side's calls only in the
/// callers `sites` names, plus the merged function, which `sites` does
/// not hold yet (its body may call a side). The callers are visited in
/// ascending [`FuncId`] order, the order of the full scan, so the result
/// and the module are identical to [`commit_merge`]'s. `sites` must hold
/// the calls of every live function but `info.merged`; the merge
/// pipeline keeps it that way.
///
/// # Errors
///
/// See [`commit_merge`].
pub fn commit_merge_indexed(
    module: &mut Module,
    info: &MergeInfo,
    sites: &CallSiteIndex,
) -> Result<CommitResult, MergeError> {
    commit_sides(module, info, |module, side| {
        // A first side deleted a moment ago is still in the index.
        let mut callers = sites.callers_of(side);
        callers.retain(|&g| module.is_live(g));
        if let Err(at) = callers.binary_search(&info.merged) {
            callers.insert(at, info.merged);
        }
        callers
    })
}

/// The commit both entry points share: side 1, then side 2, each either
/// deleted after its calls are rewritten in `callers(module, side)`, or
/// turned into a thunk.
fn commit_sides(
    module: &mut Module,
    info: &MergeInfo,
    callers: impl Fn(&Module, FuncId) -> Vec<FuncId>,
) -> Result<CommitResult, MergeError> {
    let mut touched = Vec::new();
    let mut dispositions = [Disposition::Thunk; 2];
    for (idx, (func, first)) in [(info.f1, true), (info.f2, false)].into_iter().enumerate() {
        let rw = CallRewrite::for_side(info, first);
        if can_delete(module, func) {
            let callers = callers(module, func);
            touched.extend(rewrite_calls_in(module, func, &rw, callers)?);
            module.remove_function(func);
            dispositions[idx] = Disposition::Deleted;
        } else {
            // Keep the symbol; external callers keep its signature.
            make_thunk(module, func, &rw)?;
        }
    }
    touched.sort();
    touched.dedup();
    Ok(CommitResult { first: dispositions[0], second: dispositions[1], touched })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{merge_pair, MergeConfig};
    use fmsa_ir::{FuncBuilder, Module};

    fn pair_with_caller() -> (Module, FuncId, FuncId, FuncId) {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let mut fns = Vec::new();
        for (name, c) in [("ta", 3), ("tb", 5)] {
            let f = m.create_function(name, fn_ty);
            let mut b = FuncBuilder::new(&mut m, f);
            let e = b.block("entry");
            b.switch_to(e);
            let mut v = Value::Param(0);
            for k in 0..8 {
                v = b.mul(v, b.const_i32(k + 2));
                v = b.xor(v, b.const_i32(c));
            }
            b.ret(Some(v));
        }
        fns.push(m.func_by_name("ta").expect("ta"));
        fns.push(m.func_by_name("tb").expect("tb"));
        let caller = m.create_function("caller", fn_ty);
        {
            let (ta, tb) = (fns[0], fns[1]);
            let mut b = FuncBuilder::new(&mut m, caller);
            let e = b.block("entry");
            b.switch_to(e);
            let x = b.call(ta, vec![Value::Param(0)]);
            let y = b.call(tb, vec![x]);
            b.ret(Some(y));
        }
        (m, fns[0], fns[1], caller)
    }

    #[test]
    fn call_site_counting() {
        let (m, ta, tb, caller) = pair_with_caller();
        assert_eq!(count_call_sites(&m, ta), 1);
        assert_eq!(count_call_sites(&m, tb), 1);
        assert_eq!(count_call_sites(&m, caller), 0);
    }

    #[test]
    fn deletability_rules() {
        let (mut m, ta, _, _) = pair_with_caller();
        assert!(can_delete(&m, ta), "internal and not address-taken");
        m.func_mut(ta).linkage = Linkage::External;
        assert!(!can_delete(&m, ta), "external linkage pins the symbol");
        m.func_mut(ta).linkage = Linkage::Internal;
        m.func_mut(ta).address_taken = true;
        assert!(!can_delete(&m, ta), "address-taken pins the symbol");
    }

    #[test]
    fn commit_deletes_internal_and_thunks_external() {
        let (mut m, ta, tb, _) = pair_with_caller();
        m.func_mut(tb).linkage = Linkage::External;
        let info = merge_pair(&mut m, ta, tb, &MergeConfig::default()).expect("merges");
        let result = commit_merge(&mut m, &info).expect("commit");
        assert_eq!(result.first, Disposition::Deleted);
        assert_eq!(result.second, Disposition::Thunk);
        assert!(!m.is_live(ta));
        assert!(m.is_live(tb));
        // The caller was touched (its call to ta was rewritten).
        assert!(!result.touched.is_empty());
        assert!(fmsa_ir::verify_module(&m).is_empty(), "{:?}", fmsa_ir::verify_module(&m));
    }

    #[test]
    fn indexed_commit_matches_full_scan() {
        use fmsa_ir::printer::print_module;
        let (mut full_m, ta, tb, _) = pair_with_caller();
        full_m.func_mut(tb).linkage = Linkage::External;
        let info = merge_pair(&mut full_m, ta, tb, &MergeConfig::default()).expect("merges");
        let full = commit_merge(&mut full_m, &info).expect("commit");

        let (mut indexed_m, ta, tb, _) = pair_with_caller();
        indexed_m.func_mut(tb).linkage = Linkage::External;
        let sites = CallSiteIndex::build(&indexed_m);
        let info = merge_pair(&mut indexed_m, ta, tb, &MergeConfig::default()).expect("merges");
        let indexed = commit_merge_indexed(&mut indexed_m, &info, &sites).expect("commit");
        assert_eq!(full, indexed);
        assert!(!indexed.touched.is_empty(), "the caller's call to ta was rewritten");
        assert_eq!(print_module(&full_m), print_module(&indexed_m));
        assert!(fmsa_ir::verify_module(&indexed_m).is_empty());
    }

    #[test]
    fn thunk_body_shape() {
        let (mut m, ta, tb, _) = pair_with_caller();
        m.func_mut(ta).linkage = Linkage::External;
        m.func_mut(tb).linkage = Linkage::External;
        let info = merge_pair(&mut m, ta, tb, &MergeConfig::default()).expect("merges");
        commit_merge(&mut m, &info).expect("commit");
        for f in [ta, tb] {
            let func = m.func(f);
            assert_eq!(func.block_count(), 1, "thunk is a single block");
            assert_eq!(func.inst_count(), 2, "thunk = call + ret");
            let first = func.block(func.entry()).insts[0];
            assert_eq!(func.inst(first).opcode, Opcode::Call);
            assert_eq!(func.inst(first).operands[0], Value::Func(info.merged));
        }
    }
}
