//! A maintained index of direct call/invoke sites per callee.
//!
//! The profitability model's δ term needs the number of call sites of
//! each original function ([`crate::thunks::count_call_sites`]), which
//! scans every instruction of every live function — `O(module)` per
//! merge attempt, and the single largest cost of a pass on large modules
//! (measured: ~1 ms per attempt on a 1 000-function swarm, growing
//! linearly with module size). [`CallSiteIndex`] keeps the same counts
//! incrementally: build once, then refresh only the functions a commit
//! actually touched. Queries are `O(1)` and return exactly what
//! `count_call_sites` would.
//!
//! The index tracks *committed* module state. A freshly generated merge
//! candidate that has not been committed is intentionally not part of the
//! index; [`crate::profitability::evaluate_indexed`] accounts for its
//! outgoing calls (and those of an oracle's pending best) separately so
//! the combined counts match a direct scan of the module mid-evaluation.

use fmsa_ir::{FuncId, Function, Module, Opcode, Value};
use std::collections::HashMap;

/// Per-callee direct call-site counts, maintained incrementally.
#[derive(Debug, Clone, Default)]
pub struct CallSiteIndex {
    /// callee → total direct call/invoke sites across live functions.
    counts: HashMap<FuncId, usize>,
    /// caller → its per-callee site counts (the contribution currently
    /// folded into `counts`, so refreshes can diff).
    outgoing: HashMap<FuncId, HashMap<FuncId, usize>>,
    /// callee → the callers currently contributing sites — the reverse
    /// edge set the partitioned call-site rewrite partitions over
    /// ([`crate::thunks::RewritePlan`]). Kept in lockstep with
    /// `outgoing`; the value is the same per-caller count.
    incoming: HashMap<FuncId, HashMap<FuncId, usize>>,
}

/// Scans one function body for direct call/invoke sites, per callee —
/// the per-function slice of [`crate::thunks::count_call_sites`].
pub fn outgoing_calls(func: &Function) -> HashMap<FuncId, usize> {
    let mut out: HashMap<FuncId, usize> = HashMap::new();
    for iid in func.inst_ids() {
        let inst = func.inst(iid);
        if matches!(inst.opcode, Opcode::Call | Opcode::Invoke) {
            if let Some(&Value::Func(callee)) = inst.operands.first() {
                *out.entry(callee).or_insert(0) += 1;
            }
        }
    }
    out
}

impl CallSiteIndex {
    /// Builds the index over every live function of `module`.
    pub fn build(module: &Module) -> CallSiteIndex {
        let mut idx = CallSiteIndex::default();
        for f in module.func_ids() {
            idx.refresh(module, f);
        }
        idx
    }

    /// Direct call/invoke sites of `callee` across the indexed functions;
    /// equals `count_call_sites(module, callee)` for committed state.
    pub fn count(&self, callee: FuncId) -> usize {
        self.counts.get(&callee).copied().unwrap_or(0)
    }

    /// The live functions with at least one direct call/invoke of
    /// `callee`, in ascending [`FuncId`] order (module insertion order —
    /// the order a full-module scan would visit them). `O(callers)`.
    pub fn callers_of(&self, callee: FuncId) -> Vec<FuncId> {
        let mut out: Vec<FuncId> =
            self.incoming.get(&callee).map(|m| m.keys().copied().collect()).unwrap_or_default();
        out.sort_unstable();
        out
    }

    /// Re-scans `caller`'s body and folds the difference into the counts.
    /// Call after a function body changed (thunked original, rewritten
    /// call sites) or was added (committed merged function).
    pub fn refresh(&mut self, module: &Module, caller: FuncId) {
        self.retract(caller);
        let fresh = outgoing_calls(module.func(caller));
        for (&callee, &n) in &fresh {
            *self.counts.entry(callee).or_insert(0) += n;
            self.incoming.entry(callee).or_default().insert(caller, n);
        }
        if !fresh.is_empty() {
            self.outgoing.insert(caller, fresh);
        }
    }

    /// Records that `caller`'s body is (or is about to be) a thunk whose
    /// only outgoing call targets `target` — the exact contribution
    /// [`CallSiteIndex::refresh`] would compute from a built thunk
    /// ([`crate::thunks::make_thunk`] emits one call plus a return),
    /// without reading the body. The pipeline's batched commit path uses
    /// this to keep the index in lockstep with the *planned* module
    /// state while the body replacement itself is deferred to the batch
    /// flush.
    pub fn set_thunk(&mut self, caller: FuncId, target: FuncId) {
        self.retract(caller);
        *self.counts.entry(target).or_insert(0) += 1;
        self.incoming.entry(target).or_default().insert(caller, 1);
        self.outgoing.insert(caller, HashMap::from([(target, 1)]));
    }

    /// Removes `caller`'s contribution (call when the function is deleted
    /// from the module). Its own count entry is dropped too.
    pub fn remove(&mut self, caller: FuncId) {
        self.retract(caller);
        self.counts.remove(&caller);
        self.incoming.remove(&caller);
    }

    fn retract(&mut self, caller: FuncId) {
        if let Some(old) = self.outgoing.remove(&caller) {
            for (callee, n) in old {
                if let Some(c) = self.counts.get_mut(&callee) {
                    *c = c.saturating_sub(n);
                }
                if let Some(inc) = self.incoming.get_mut(&callee) {
                    inc.remove(&caller);
                    if inc.is_empty() {
                        self.incoming.remove(&callee);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thunks::count_call_sites;
    use fmsa_ir::{FuncBuilder, Value};

    /// callers[k] calls `callee` k times; `callee` also calls itself once.
    fn call_module() -> (Module, FuncId, Vec<FuncId>) {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let callee = m.create_function("callee", fn_ty);
        {
            let mut b = FuncBuilder::new(&mut m, callee);
            let e = b.block("entry");
            b.switch_to(e);
            let r = b.call(callee, vec![Value::Param(0)]);
            b.ret(Some(r));
        }
        let mut callers = Vec::new();
        for k in 0..3usize {
            let f = m.create_function(format!("caller{k}"), fn_ty);
            let mut b = FuncBuilder::new(&mut m, f);
            let e = b.block("entry");
            b.switch_to(e);
            let mut v = Value::Param(0);
            for _ in 0..k {
                v = b.call(callee, vec![v]);
            }
            b.ret(Some(v));
            callers.push(f);
        }
        (m, callee, callers)
    }

    #[test]
    fn build_matches_direct_scan() {
        let (m, callee, callers) = call_module();
        let idx = CallSiteIndex::build(&m);
        assert_eq!(idx.count(callee), count_call_sites(&m, callee));
        assert_eq!(idx.count(callee), 4, "1 self-call + 0 + 1 + 2");
        for &c in &callers {
            assert_eq!(idx.count(c), 0);
        }
    }

    #[test]
    fn refresh_tracks_body_changes() {
        let (mut m, callee, callers) = call_module();
        let mut idx = CallSiteIndex::build(&m);
        // Rewrite caller2's body to drop its calls.
        m.func_mut(callers[2]).clear_body();
        let e = m.func_mut(callers[2]).add_block("entry");
        let void = m.types.void();
        m.func_mut(callers[2])
            .append_inst(e, fmsa_ir::Inst::new(Opcode::Ret, void, vec![Value::Param(0)]));
        idx.refresh(&m, callers[2]);
        assert_eq!(idx.count(callee), count_call_sites(&m, callee));
        assert_eq!(idx.count(callee), 2);
    }

    #[test]
    fn remove_drops_contribution_and_entry() {
        let (mut m, callee, callers) = call_module();
        let mut idx = CallSiteIndex::build(&m);
        m.remove_function(callers[1]);
        idx.remove(callers[1]);
        assert_eq!(idx.count(callee), count_call_sites(&m, callee));
        assert_eq!(idx.count(callee), 3);
        assert_eq!(idx.count(callers[1]), 0);
    }

    #[test]
    fn callers_of_tracks_reverse_edges_in_module_order() {
        let (mut m, callee, callers) = call_module();
        let mut idx = CallSiteIndex::build(&m);
        // caller0 makes no calls; the callee calls itself.
        assert_eq!(idx.callers_of(callee), vec![callee, callers[1], callers[2]]);
        assert!(idx.callers_of(callers[0]).is_empty());
        m.remove_function(callers[1]);
        idx.remove(callers[1]);
        assert_eq!(idx.callers_of(callee), vec![callee, callers[2]]);
        // Dropping caller2's calls removes its reverse edge on refresh.
        m.func_mut(callers[2]).clear_body();
        let e = m.func_mut(callers[2]).add_block("entry");
        let void = m.types.void();
        m.func_mut(callers[2])
            .append_inst(e, fmsa_ir::Inst::new(Opcode::Ret, void, vec![Value::Param(0)]));
        idx.refresh(&m, callers[2]);
        assert_eq!(idx.callers_of(callee), vec![callee]);
    }

    #[test]
    fn set_thunk_matches_refresh_of_built_thunk() {
        let (mut m, callee, callers) = call_module();
        // Predicted contribution, set before the body changes...
        let mut predicted = CallSiteIndex::build(&m);
        predicted.set_thunk(callers[2], callee);
        // ...must equal a refresh after actually building the thunk body.
        m.func_mut(callers[2]).clear_body();
        let e = m.func_mut(callers[2]).add_block("entry");
        let void = m.types.void();
        let call = m
            .func_mut(callers[2])
            .append_inst(e, fmsa_ir::Inst::new(Opcode::Call, void, vec![Value::Func(callee)]));
        m.func_mut(callers[2])
            .append_inst(e, fmsa_ir::Inst::new(Opcode::Ret, void, vec![Value::Inst(call)]));
        let mut rescanned = CallSiteIndex::build(&m);
        rescanned.refresh(&m, callers[2]);
        assert_eq!(predicted.count(callee), rescanned.count(callee));
        assert_eq!(predicted.callers_of(callee), rescanned.callers_of(callee));
        // caller2's two old calls were retracted, one thunk call added.
        assert_eq!(predicted.count(callee), 3);
    }

    #[test]
    fn refresh_is_idempotent() {
        let (m, callee, _) = call_module();
        let mut idx = CallSiteIndex::build(&m);
        for f in m.func_ids() {
            idx.refresh(&m, f);
            idx.refresh(&m, f);
        }
        assert_eq!(idx.count(callee), count_call_sites(&m, callee));
    }
}
