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

use crate::callsites::{outgoing_calls, CallSiteIndex};
use crate::merge::{
    codegen::{cast_back_in, prepare_cast_tys},
    MergeError, MergeInfo,
};
use fmsa_ir::{
    FuncId, Function, Inst, InstId, Linkage, Module, Opcode, TyId, Type, TypeStore, Value,
};
use rayon::ThreadPool;
use std::collections::{BTreeSet, HashMap, HashSet};

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
    pub fn for_side(_module: &Module, info: &MergeInfo, first_side: bool) -> CallRewrite {
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
        for iid in gf.inst_ids() {
            let inst = gf.inst(iid);
            if matches!(inst.opcode, Opcode::Call | Opcode::Invoke)
                && inst.operands.first() == Some(&Value::Func(func))
            {
                n += 1;
            }
        }
    }
    n
}

/// Direct call/invoke sites of `from` inside one function body, in
/// layout order — the per-caller scan shared by the serial rewrite loop
/// and the partitioned rewrite tasks.
fn call_sites_of(f: &Function, from: FuncId) -> Vec<InstId> {
    f.inst_ids()
        .into_iter()
        .filter(|&i| {
            let inst = f.inst(i);
            matches!(inst.opcode, Opcode::Call | Opcode::Invoke)
                && inst.operands.first() == Some(&Value::Func(from))
        })
        .collect()
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

/// [`rewrite_call_sites`] over `callers` only: the identical prepass
/// passes [`CallSiteIndex::callers_of`] (ascending, the order a full scan
/// visits them) instead of every function of the module.
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
        let call_sites = call_sites_of(module.func(g), from);
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
/// original return that differs from the merged base), so the store
/// evolves identically to the historical rewrite-time interning.
fn prepare_side_casts(types: &mut TypeStore, rw: &CallRewrite) -> Result<(), MergeError> {
    let orig_is_void = matches!(types.get(rw.ret_orig), Type::Void);
    if !orig_is_void && rw.ret_orig != rw.ret_base {
        prepare_cast_tys(types, rw.ret_base, rw.ret_orig)?;
    }
    Ok(())
}

/// [`rewrite_one_call`] against a (possibly detached) function: mutates
/// only `f` and reads only pre-interned types, so disjoint callers can be
/// rewritten from different worker threads (see [`RewritePlan`]).
fn rewrite_one_call_in(
    f: &mut Function,
    types: &TypeStore,
    c: InstId,
    rw: &CallRewrite,
) -> Result<(), MergeError> {
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
            .inst_ids()
            .into_iter()
            .filter(|&u| u != c && f.inst(u).operands.contains(&Value::Inst(c)))
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

fn rewrite_one_call(
    module: &mut Module,
    g: FuncId,
    c: InstId,
    rw: &CallRewrite,
) -> Result<(), MergeError> {
    prepare_side_casts(&mut module.types, rw)?;
    let (f, types) = module.func_mut_with_types(g);
    rewrite_one_call_in(f, types, c, rw)
}

/// [`make_thunk`] against a (possibly detached) function; see
/// [`rewrite_one_call_in`] for why this only reads the type store.
fn make_thunk_in(f: &mut Function, types: &TypeStore, rw: &CallRewrite) -> Result<(), MergeError> {
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

/// Replaces the body of `orig` with a thunk calling the merged function.
///
/// # Errors
///
/// Propagates cast construction failures.
pub fn make_thunk(module: &mut Module, orig: FuncId, rw: &CallRewrite) -> Result<(), MergeError> {
    prepare_side_casts(&mut module.types, rw)?;
    let (f, types) = module.func_mut_with_types(orig);
    make_thunk_in(f, types, rw)
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
/// into a thunk otherwise.
///
/// # Errors
///
/// Propagates cast construction failures; the module may be partially
/// rewritten in that case (tests assert this never happens).
pub fn commit_merge(module: &mut Module, info: &MergeInfo) -> Result<CommitResult, MergeError> {
    let mut touched = Vec::new();
    let mut dispositions = [Disposition::Thunk; 2];
    for (idx, (func, first)) in [(info.f1, true), (info.f2, false)].into_iter().enumerate() {
        let rw = CallRewrite::for_side(module, info, first);
        if can_delete(module, func) {
            touched.extend(rewrite_call_sites(module, func, &rw)?);
            module.remove_function(func);
            dispositions[idx] = Disposition::Deleted;
        } else {
            // Keep the symbol; external callers keep its signature.
            make_thunk(module, func, &rw)?;
            dispositions[idx] = Disposition::Thunk;
        }
    }
    touched.sort();
    touched.dedup();
    Ok(CommitResult { first: dispositions[0], second: dispositions[1], touched })
}

/// One caller-exclusive action inside a [`RewritePlan`] partition.
#[derive(Debug, Clone)]
enum RewriteTask {
    /// Rewrite every direct call/invoke of `from` in this caller into a
    /// call of the merged function per `rw`.
    Calls { from: FuncId, rw: CallRewrite },
    /// Replace this function's body with a thunk calling the merged
    /// function.
    Thunk { rw: CallRewrite },
}

/// How one original function will be retired when its plan executes.
#[derive(Debug)]
struct PlannedSide {
    func: FuncId,
    rw: CallRewrite,
    disposition: Disposition,
    /// Callers from the call-site index (committed module state), in
    /// module order, minus sides retired earlier in the batch. The
    /// batch's merged functions are scanned at execute time, when all of
    /// them are known.
    index_callers: Vec<FuncId>,
}

/// A partitioned call-graph-update plan for a batch of validated merges —
/// the parallel replacement for serial [`commit_merge`] loops.
///
/// [`RewritePlan::add_merge`] records, per merge, the rewrite description
/// of both sides and the callers of each deletable side (via the
/// incremental [`CallSiteIndex`]). [`RewritePlan::execute`] then scans
/// the batch's merged functions (absent from the index, but their bodies
/// can carry rewritable call sites — recursion, or a later merge built
/// from a caller of an earlier side), groups every rewrite **by
/// caller** — each caller is one partition, mutated exclusively by one
/// task list — detaches the partitions from the module, and runs them on
/// the worker pool: disjoint callers in parallel, a caller touched by
/// multiple merges (or by both sides of one merge) serially within its
/// partition, in the order the merges were added. Every cross-caller
/// effect of the serial loop is hoisted into the sequential plan/assemble
/// steps — cast container types are pre-interned in the serial order
/// (`prepare_cast_tys`), deletions are deferred past every rewrite — so
/// the result is bit-identical, at any thread count, to building every
/// merged function first and then running serial [`commit_merge`] once
/// per merge in add order (property-tested in `tests/rewrite_plan.rs`).
///
/// Batch contract: the originals of the added merges must be pairwise
/// distinct functions that existed before the batch — a merged function
/// produced by this batch cannot itself be a side of a later merge in
/// the same batch (the paper's feedback loop commits such merges one
/// plan at a time, as the pipeline does; `add_merge` asserts this).
/// `sites` must describe the module state before any merge of the batch
/// (the batch's own merged functions are scanned directly, so they may
/// be present in the module but need not be indexed).
#[derive(Debug, Default)]
pub struct RewritePlan {
    /// Both sides of every added merge, in add order.
    sides: Vec<PlannedSide>,
    /// Sides already planned by this batch: their bodies are replaced or
    /// removed before any later rewrite would reach them serially, so
    /// later merges must not schedule rewrites inside them.
    retired: HashSet<FuncId>,
    /// Merged functions of the batch — live in the module but absent
    /// from the call-site index; scanned at execute time.
    merged: Vec<FuncId>,
}

impl RewritePlan {
    /// An empty plan.
    pub fn new() -> RewritePlan {
        RewritePlan::default()
    }

    /// Records the call-graph update of one merge (both sides) in the
    /// batch. Pure bookkeeping — the module is only read.
    ///
    /// # Panics
    ///
    /// Panics on a batch-contract violation: a side that is a merged
    /// function of this batch, or a side (or merged function) planned
    /// twice. Rewrites targeting a batch-produced function only exist
    /// after earlier partitions ran, so they cannot be planned
    /// statically; committing such a merge silently wrong would be far
    /// worse than refusing it — use one plan per merge (the pipeline's
    /// configuration) for feedback-loop merges.
    pub fn add_merge(&mut self, module: &Module, info: &MergeInfo, sites: &CallSiteIndex) {
        for side in [info.f1, info.f2] {
            assert!(
                !self.merged.contains(&side),
                "batch contract: side {side} is a merged function produced by this batch"
            );
            assert!(
                !self.retired.contains(&side),
                "batch contract: side {side} already planned by this batch"
            );
        }
        assert!(
            !self.merged.contains(&info.merged),
            "batch contract: merged function {} planned twice",
            info.merged
        );
        self.merged.push(info.merged);
        for (func, first) in [(info.f1, true), (info.f2, false)] {
            let rw = CallRewrite::for_side(module, info, first);
            let (disposition, index_callers) = if can_delete(module, func) {
                // Callers in module order: the index's committed view,
                // minus the function itself (a serial scan skips it) and
                // anything this batch already retired.
                let callers: Vec<FuncId> = sites
                    .callers_of(func)
                    .into_iter()
                    .filter(|&g| g != func && !self.retired.contains(&g) && module.is_live(g))
                    .collect();
                (Disposition::Deleted, callers)
            } else {
                // Keep the symbol; external callers keep its signature.
                (Disposition::Thunk, Vec::new())
            };
            self.sides.push(PlannedSide { func, rw, disposition, index_callers });
            self.retired.insert(func);
        }
    }

    /// Number of merges added to the batch so far.
    pub fn merges(&self) -> usize {
        self.sides.len() / 2
    }

    /// Sides retired by the batch so far (both originals of every added
    /// merge). The pipeline's batch-eligibility rules consult this: a
    /// merge whose callers or merged-body callees intersect the retired
    /// set would interact with a pending rewrite and must flush first.
    pub fn retired(&self) -> &HashSet<FuncId> {
        &self.retired
    }

    /// Merged functions of the batch, in add order.
    pub fn merged_funcs(&self) -> &[FuncId] {
        &self.merged
    }

    /// Executes the batch: assembles the caller partitions (including the
    /// batch's merged functions, scanned once each), pre-interns the cast
    /// container types in serial commit order, runs every partition on
    /// `pool` (or inline, without a pool / on a single-thread pool), and
    /// finally removes the deletable originals. Returns one
    /// [`CommitResult`] per added merge, in add order.
    ///
    /// # Errors
    ///
    /// Propagates cast construction failures (programming errors guarded
    /// by tests); like a failed serial commit, the module may be left
    /// partially rewritten.
    pub fn execute(
        self,
        module: &mut Module,
        pool: Option<&ThreadPool>,
    ) -> Result<Vec<CommitResult>, MergeError> {
        // One body scan per batch merged function, shared by every side.
        let merged_outs: Vec<(FuncId, HashMap<FuncId, usize>)> =
            self.merged.iter().map(|&m| (m, outgoing_calls(module.func(m)))).collect();
        let mut tasks: HashMap<FuncId, Vec<RewriteTask>> = HashMap::new();
        let mut side_touched: Vec<Vec<FuncId>> = Vec::with_capacity(self.sides.len());
        for side in &self.sides {
            match side.disposition {
                Disposition::Deleted => {
                    let mut callers: BTreeSet<FuncId> =
                        side.index_callers.iter().copied().collect();
                    callers.extend(
                        merged_outs
                            .iter()
                            .filter(|(_, outs)| outs.contains_key(&side.func))
                            .map(|&(m, _)| m),
                    );
                    if !callers.is_empty() {
                        prepare_side_casts(&mut module.types, &side.rw)?;
                    }
                    for &g in &callers {
                        tasks
                            .entry(g)
                            .or_default()
                            .push(RewriteTask::Calls { from: side.func, rw: side.rw.clone() });
                    }
                    side_touched.push(callers.into_iter().collect());
                }
                Disposition::Thunk => {
                    prepare_side_casts(&mut module.types, &side.rw)?;
                    tasks
                        .entry(side.func)
                        .or_default()
                        .push(RewriteTask::Thunk { rw: side.rw.clone() });
                    side_touched.push(Vec::new());
                }
            }
        }
        let mut order: Vec<FuncId> = tasks.keys().copied().collect();
        order.sort_unstable();
        let task_lists: Vec<Vec<RewriteTask>> =
            order.iter().map(|g| tasks.remove(g).expect("planned partition")).collect();
        let results: Vec<Result<(), MergeError>> =
            module.with_detached_functions(&order, |types, funcs| match pool {
                Some(pool) if pool.current_num_threads() > 1 && funcs.len() > 1 => {
                    let mut results: Vec<Result<(), MergeError>> = Vec::new();
                    results.resize_with(funcs.len(), || Ok(()));
                    pool.scope(|s| {
                        for ((f, tasks), slot) in
                            funcs.iter_mut().zip(&task_lists).zip(results.iter_mut())
                        {
                            s.spawn(move |_| *slot = run_partition(f, types, tasks));
                        }
                    });
                    results
                }
                _ => funcs
                    .iter_mut()
                    .zip(&task_lists)
                    .map(|(f, tasks)| run_partition(f, types, tasks))
                    .collect(),
            });
        for r in results {
            r?;
        }
        let mut out = Vec::with_capacity(self.sides.len() / 2);
        for (pair, pair_touched) in self.sides.chunks(2).zip(side_touched.chunks(2)) {
            let mut touched: Vec<FuncId> = Vec::new();
            let mut disp = [Disposition::Thunk; 2];
            for (k, side) in pair.iter().enumerate() {
                disp[k] = side.disposition;
                touched.extend(&pair_touched[k]);
                if side.disposition == Disposition::Deleted {
                    module.remove_function(side.func);
                }
            }
            touched.sort();
            touched.dedup();
            out.push(CommitResult { first: disp[0], second: disp[1], touched });
        }
        Ok(out)
    }
}

/// Runs one caller partition: its rewrite tasks, in batch order, against
/// the detached function. Only `f` is mutated; `types` is read-only.
fn run_partition(
    f: &mut Function,
    types: &TypeStore,
    tasks: &[RewriteTask],
) -> Result<(), MergeError> {
    for task in tasks {
        match task {
            RewriteTask::Calls { from, rw } => {
                let call_sites = call_sites_of(f, *from);
                debug_assert!(!call_sites.is_empty(), "planned caller without call sites");
                for c in call_sites {
                    rewrite_one_call_in(f, types, c, rw)?;
                }
            }
            RewriteTask::Thunk { rw } => make_thunk_in(f, types, rw)?,
        }
    }
    Ok(())
}

/// Pre-interns, at merge-decision time, the cast container types the
/// serial commit of `info` would intern right now — so a *deferred*
/// (batched) commit leaves the type store evolving bit-identically to
/// committing immediately. Only thunk sides intern here: the pipeline's
/// batch-eligibility rules guarantee every deletable side has zero
/// callers, and a caller-less deleted side interns nothing serially
/// either. When the batch flushes, [`RewritePlan::execute`] re-runs the
/// same preparation, which the type store's interning dedupe turns into
/// a no-op.
///
/// # Errors
///
/// Propagates cast construction failures.
pub(crate) fn prepare_commit_casts(
    module: &mut Module,
    info: &MergeInfo,
) -> Result<(), MergeError> {
    for (func, first) in [(info.f1, true), (info.f2, false)] {
        if !can_delete(module, func) {
            let rw = CallRewrite::for_side(module, info, first);
            prepare_side_casts(&mut module.types, &rw)?;
        }
    }
    Ok(())
}

/// [`commit_merge`] through a single-merge [`RewritePlan`]: identical
/// output, but the per-caller rewrite partitions execute on `pool` (pass
/// `None` to run them inline). The pipeline's commit stage uses this so
/// the last serial per-merge loop — call-site rewriting and thunking —
/// scales with the worker pool.
///
/// # Errors
///
/// See [`commit_merge`].
pub fn commit_merge_partitioned(
    module: &mut Module,
    info: &MergeInfo,
    sites: &CallSiteIndex,
    pool: Option<&ThreadPool>,
) -> Result<CommitResult, MergeError> {
    let mut plan = RewritePlan::new();
    plan.add_merge(module, info, sites);
    let mut results = plan.execute(module, pool)?;
    Ok(results.pop().expect("exactly one merge planned"))
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
    fn partitioned_commit_matches_serial_at_any_thread_count() {
        use fmsa_ir::printer::print_module;
        for threads in [1usize, 2, 4, 8] {
            let (mut serial_m, ta, tb, _) = pair_with_caller();
            serial_m.func_mut(tb).linkage = Linkage::External;
            let info = merge_pair(&mut serial_m, ta, tb, &MergeConfig::default()).expect("merges");
            let serial = commit_merge(&mut serial_m, &info).expect("commit");

            let (mut part_m, ta, tb, _) = pair_with_caller();
            part_m.func_mut(tb).linkage = Linkage::External;
            let sites = crate::callsites::CallSiteIndex::build(&part_m);
            let info = merge_pair(&mut part_m, ta, tb, &MergeConfig::default()).expect("merges");
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool");
            let partitioned =
                commit_merge_partitioned(&mut part_m, &info, &sites, Some(&pool)).expect("commit");
            assert_eq!(serial, partitioned, "at {threads} threads");
            assert_eq!(
                print_module(&serial_m),
                print_module(&part_m),
                "module text at {threads} threads"
            );
            assert!(fmsa_ir::verify_module(&part_m).is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "merged function produced by this batch")]
    fn batch_rejects_feedback_loop_merges() {
        // A merged function of the batch cannot be a side of a later
        // merge in the same batch: its incoming calls only exist after
        // earlier partitions ran, so they cannot be planned statically.
        let (mut m, ta, tb, _) = pair_with_caller();
        let sites = crate::callsites::CallSiteIndex::build(&m);
        let info1 = merge_pair(&mut m, ta, tb, &MergeConfig::default()).expect("merges");
        let mut info2 = info1.clone();
        info2.f1 = info1.merged; // feedback-loop shape
        let mut plan = RewritePlan::new();
        plan.add_merge(&m, &info1, &sites);
        plan.add_merge(&m, &info2, &sites);
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
