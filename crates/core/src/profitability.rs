//! The profitability cost model (paper §IV-A).
//!
//! ```text
//! Δ({f1,f2}, f1,2) = (c(f1) + c(f2)) − (c(f1,2) + ε)
//! ε = δ(f1, f1,2) + δ(f2, f1,2)
//! ```
//!
//! where `c` is the target-specific code-size cost (our TTI stand-in,
//! [`fmsa_target::CostModel`]) and `δ` covers "(1) the cases where we need
//! to keep the original functions with a call to the merged function; and
//! (2) for the cases where we update the call graph, there might be an
//! extra cost with a call to the merged function due to the increased
//! number of arguments."

use crate::callsites::{outgoing_calls, CallSiteIndex};
use crate::linearize::Entry;
use crate::merge::codegen::{classify_cast_widen, CastShape};
use crate::merge::{merge_setup, MergeConfig, MergeError, MergeInfo};
use crate::thunks::{can_delete, count_call_sites};
use fmsa_align::{Alignment, Step};
use fmsa_ir::{FuncId, Function, Inst, InstId, Module, Opcode, TyId, Type, TypeStore, Value};
use fmsa_target::CostModel;
use std::collections::HashSet;

/// Detailed outcome of the Δ computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfitReport {
    /// `c(f1)` in bytes.
    pub size_f1: u64,
    /// `c(f2)` in bytes.
    pub size_f2: u64,
    /// `c(f1,2)` in bytes.
    pub size_merged: u64,
    /// The ε extra-cost term in bytes.
    pub epsilon: u64,
    /// The Δ profit; positive means merging shrinks the program.
    pub delta: i64,
}

impl ProfitReport {
    /// "We consider that the merge operation is profitable if Δ > 0."
    pub fn is_profitable(&self) -> bool {
        self.delta > 0
    }
}

/// Evaluates Δ for a completed (but not yet committed) merge.
///
/// Like the paper, `c(f)` sums per-instruction TTI code-size costs — the
/// fixed prologue/epilogue overhead of the symbol is *not* credited, which
/// keeps merges of dissimilar functions (whose merged body exceeds the sum
/// of the originals) unprofitable.
pub fn evaluate(module: &Module, cm: &CostModel, info: &MergeInfo) -> ProfitReport {
    evaluate_counted(module, cm, info, &|f| count_call_sites(module, f))
}

/// [`evaluate`] with call sites answered by a [`CallSiteIndex`] instead of
/// a whole-module scan — `O(f1 + f2 + merged)` instead of `O(module)`.
///
/// `sites` must reflect the *committed* module (it does not know the
/// still-uncommitted merged function); the merged function's own direct
/// calls are counted here from its body, so the result equals what
/// [`evaluate`] would compute over the same module state.
pub fn evaluate_indexed(
    module: &Module,
    cm: &CostModel,
    info: &MergeInfo,
    sites: &CallSiteIndex,
) -> ProfitReport {
    let merged_out = outgoing_calls(module.func(info.merged));
    evaluate_counted(module, cm, info, &|f| {
        sites.count(f) + merged_out.get(&f).copied().unwrap_or(0)
    })
}

fn evaluate_counted(
    module: &Module,
    cm: &CostModel,
    info: &MergeInfo,
    sites_of: &dyn Fn(FuncId) -> usize,
) -> ProfitReport {
    let size_f1 = cm.body_size(module, info.f1);
    let size_f2 = cm.body_size(module, info.f2);
    let size_merged = cm.body_size(module, info.merged);
    let epsilon = delta_cost(module, cm, info, true, sites_of)
        + delta_cost(module, cm, info, false, sites_of);
    let delta = (size_f1 + size_f2) as i64 - (size_merged + epsilon) as i64;
    ProfitReport { size_f1, size_f2, size_merged, epsilon, delta }
}

/// The δ(f_i, f1,2) term for one side.
fn delta_cost(
    module: &Module,
    cm: &CostModel,
    info: &MergeInfo,
    first: bool,
    sites_of: &dyn Fn(FuncId) -> usize,
) -> u64 {
    let func: FuncId = if first { info.f1 } else { info.f2 };
    let ret_orig = if first { info.ret.ty1 } else { info.ret.ty2 };
    delta_cost_side(
        module,
        cm,
        func,
        info.params.merged_tys.len() as u64,
        ret_orig,
        info.ret.base,
        sites_of,
    )
}

/// [`delta_cost`] over explicit pieces instead of a [`MergeInfo`] — used
/// by [`crate::merge::speculate::evaluate_speculative`], whose merged
/// body still lives in a scratch module and so has no main-module
/// `MergeInfo` yet. All ids must be main-module ids.
pub(crate) fn delta_cost_side(
    module: &Module,
    cm: &CostModel,
    func: FuncId,
    merged_params: u64,
    ret_orig: TyId,
    ret_base: TyId,
    sites_of: &dyn Fn(FuncId) -> usize,
) -> u64 {
    let ret_cast = ret_cast_cost(module, ret_orig, ret_base);
    if can_delete(module, func) {
        // Call-graph update: every call site passes extra arguments and may
        // convert the result.
        let orig_params = module.func(func).params().len() as u64;
        let extra_args = merged_params.saturating_sub(orig_params);
        let sites = sites_of(func) as u64;
        sites * (extra_args * cm.per_arg_call_cost() + ret_cast)
    } else {
        thunk_epsilon(cm, merged_params, ret_cast)
    }
}

/// Cost of converting the merged result back to one side's return type:
/// a short bitcast/trunc chain at each use of the result.
fn ret_cast_cost(module: &Module, ret_orig: TyId, ret_base: TyId) -> u64 {
    if ret_orig == ret_base || matches!(module.types.get(ret_orig), Type::Void) {
        0
    } else {
        4
    }
}

/// The δ of a side that cannot be deleted: its symbol stays as a thunk
/// whose body calls the merged function, forwarding every merged argument
/// plus the return.
fn thunk_epsilon(cm: &CostModel, merged_params: u64, ret_cast: u64) -> u64 {
    cm.call_cost() + merged_params * cm.per_arg_call_cost() + ret_cast + 1
}

/// A sound upper bound on the Δ of merging two functions, computed
/// before code generation ([`delta_bound`]), together with the type-store
/// effects a skipped build has to reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaBound {
    /// The bound: [`evaluate`] of the built merge is never larger.
    pub bound: i64,
    /// Lower bound on `c(f1,2)`.
    pub size_merged: u64,
    /// Lower bound on ε: the exact thunk δ of each side that
    /// [`can_delete`] rejects (deletable sides are charged nothing).
    pub epsilon: u64,
    /// What building and discarding the body interns, or `None` when the
    /// build could fail part-way and so intern less.
    replay: Option<TypeReplay>,
}

/// The types a build-and-discard leaves in the store, in interning order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TypeReplay {
    /// The merged signature `func(ret.base, merged_tys)`, interned first.
    ret: TyId,
    params: Vec<TyId>,
    /// The return casts' integer containers `int(from)`, `int(to)`.
    ret_casts: Vec<(u32, u32)>,
    /// Types of every cloned value: register demotion may intern a
    /// stack slot `ptr(T)` for any of them.
    slot_pointees: Vec<TyId>,
}

impl DeltaBound {
    /// Whether the gate may skip code generation: Δ ≤ 0 is proven, and
    /// [`DeltaBound::replay_skip`] leaves `types` exactly as the build
    /// would — which needs every demotion-slot pointer type the build
    /// could intern to exist already.
    pub fn rules_out(&self, types: &TypeStore) -> bool {
        self.bound <= 0
            && self.replay.as_ref().is_some_and(|r| {
                r.slot_pointees.iter().all(|&t| types.lookup(&Type::Ptr { pointee: t }).is_some())
            })
    }

    /// Interns what building and discarding the merged body would have
    /// left behind: the merged signature, then the return-cast
    /// containers. Type ids feed the MinHash fingerprints, so a skipped
    /// build must evolve the store exactly like a real one. Call only
    /// when [`DeltaBound::rules_out`] holds for `types`.
    pub fn replay_skip(&self, types: &mut TypeStore) {
        let Some(r) = &self.replay else { return };
        types.func(r.ret, r.params.clone());
        for &(from, to) in &r.ret_casts {
            types.int(from);
            types.int(to);
        }
    }
}

/// What an entry or operand becomes in the merged body, as codegen's
/// operand pass resolves it: two operands get the same value exactly when
/// their keys are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Resolved {
    /// The one clone of a matched column (named by its first-side entry).
    Shared(Entry),
    /// The clone of an entry only the first function has.
    First(Entry),
    /// The clone of an entry only the second function has.
    Second(Entry),
    /// A merged parameter slot.
    Param(usize),
    /// A constant or function reference, used as is.
    Value(Value),
}

/// What each entry of one side resolves to, indexed by instruction and
/// block id (an id outside the linearization resolves to nothing).
struct SideMap {
    insts: Vec<Option<Resolved>>,
    blocks: Vec<Option<Resolved>>,
}

impl SideMap {
    fn for_seq(seq: &[Entry]) -> SideMap {
        let (mut insts, mut blocks) = (0, 0);
        for e in seq {
            match *e {
                Entry::Inst(i) => insts = insts.max(i.index() + 1),
                Entry::Label(b) => blocks = blocks.max(b.index() + 1),
            }
        }
        SideMap { insts: vec![None; insts], blocks: vec![None; blocks] }
    }

    fn set(&mut self, e: Entry, r: Resolved) {
        match e {
            Entry::Inst(i) => self.insts[i.index()] = Some(r),
            Entry::Label(b) => self.blocks[b.index()] = Some(r),
        }
    }

    fn get(&self, e: Entry) -> Option<Resolved> {
        match e {
            Entry::Inst(i) => self.insts.get(i.index()).copied().flatten(),
            Entry::Label(b) => self.blocks.get(b.index()).copied().flatten(),
        }
    }
}

/// A sound upper bound on the Δ [`evaluate`] would report for the merge
/// of `f1` and `f2` under `alignment`, from the alignment, the two input
/// bodies and the module alone — no code is generated. If the bound is
/// ≤ 0 the build is certain to be discarded as unprofitable.
///
/// The merged body is charged, each term at most what codegen emits:
///
/// * every matched column once, every other column on its own side —
///   codegen clones each linearized instruction exactly once into blocks
///   that stay reachable, and a matched pair has one opcode and operand
///   count, so one cost. A `br` is charged 0: the trivial-block threading
///   after codegen may delete it;
/// * one function-identifier `condbr` per divergent region entered from a
///   block that is not yet terminated — the diamond codegen opens there;
/// * one `select` per distinct mismatched operand pair of the matched
///   instructions, after codegen's own commutative swap, keyed the way its
///   operand pass resolves operands (clones of matched columns, merged
///   parameter slots, constants) — codegen emits at least one per pair;
/// * one selector `condbr` per distinct mismatched label pair.
///
/// ε is charged the exact thunk δ of each side [`can_delete`] rejects;
/// deletable sides pay a call-site term ≥ 0 and are charged nothing.
/// Linkage and address-taken never change during a pass, so a bound
/// computed while preparing a pair stays valid when it is committed.
///
/// # Errors
///
/// The set-up errors of [`merge_setup`] — the build would fail the same
/// way before interning anything.
#[allow(clippy::too_many_arguments)]
pub fn delta_bound(
    module: &Module,
    cm: &CostModel,
    f1: FuncId,
    f2: FuncId,
    seq1: &[Entry],
    seq2: &[Entry],
    alignment: &Alignment,
    config: &MergeConfig,
) -> Result<DeltaBound, MergeError> {
    let setup = merge_setup(module, f1, f2, seq1, seq2, alignment, config)?;
    let (fa, fb) = (module.func(f1), module.func(f2));
    let types = &module.types;
    let void = types.void();

    // Walk the columns in codegen order: cost every clone, count the
    // divergent regions that need an identifier branch, and collect what
    // the operand pass will look at.
    let mut side1 = SideMap::for_seq(seq1);
    let mut side2 = SideMap::for_seq(seq2);
    let cost = |f: &Function, e: Entry| match e {
        Entry::Inst(i) if f.inst(i).opcode != Opcode::Br => cm.inst_cost(f.inst(i)),
        _ => 0,
    };
    let mut size_merged = 0u64;
    let mut matched: Vec<(InstId, InstId)> = Vec::new();
    let mut singles: Vec<(bool, InstId)> = Vec::new();
    // `ret` clones, as `(first side's view, inst)`. Only the side whose
    // return type is not the base needs a cast, so at most one container
    // pair exists and the visiting order does not matter.
    let mut rets: Vec<(bool, InstId)> = Vec::new();
    let mut pointees: Vec<TyId> = Vec::new();
    // Pass 1 state: whether the current insertion block exists and has no
    // terminator yet (codegen starts in an open entry block).
    let mut open = true;
    let mut in_region = false;
    let mut fid_branches = 0u64;
    for step in &alignment.steps {
        if let Step::Both { i, j, matched: true } = *step {
            in_region = false;
            size_merged += cost(fa, seq1[i]);
            side1.set(seq1[i], Resolved::Shared(seq1[i]));
            side2.set(seq2[j], Resolved::Shared(seq1[i]));
            match (seq1[i], seq2[j]) {
                (Entry::Inst(x), Entry::Inst(y)) => {
                    let inst = fa.inst(x);
                    open = !inst.is_terminator();
                    pointees.push(inst.ty);
                    if inst.opcode == Opcode::Ret {
                        rets.push((true, x));
                    }
                    matched.push((x, y));
                }
                _ => open = true,
            }
            continue;
        }
        if !in_region {
            fid_branches += open as u64;
            in_region = true;
            open = false;
        }
        let (e1, e2) = match *step {
            Step::Both { i, j, .. } => (Some(seq1[i]), Some(seq2[j])),
            Step::Left(i) => (Some(seq1[i]), None),
            Step::Right(j) => (None, Some(seq2[j])),
        };
        for (first, e) in [(true, e1), (false, e2)] {
            let Some(e) = e else { continue };
            let (f, map) = if first { (fa, &mut side1) } else { (fb, &mut side2) };
            size_merged += cost(f, e);
            map.set(e, if first { Resolved::First(e) } else { Resolved::Second(e) });
            if let Entry::Inst(x) = e {
                let inst = f.inst(x);
                pointees.push(inst.ty);
                singles.push((first, x));
                if inst.opcode == Opcode::Ret {
                    rets.push((first, x));
                }
            }
        }
    }

    let resolve = |first: bool, v: Value| -> Option<Resolved> {
        let (map, slots) =
            if first { (&side1, &setup.params.map1) } else { (&side2, &setup.params.map2) };
        match v {
            Value::Inst(i) => map.get(Entry::Inst(i)),
            Value::Block(b) => map.get(Entry::Label(b)),
            Value::Param(p) => slots.get(p as usize).map(|&k| Resolved::Param(k)),
            other => Some(Resolved::Value(other)),
        }
    };
    // Whether codegen runs to completion, so a skip can replay it: every
    // operand resolves and no matched pair needs a select it cannot build.
    let mut completes = true;
    for &(first, x) in &singles {
        let f = if first { fa } else { fb };
        completes &= f.inst(x).operands.iter().all(|&v| resolve(first, v).is_some());
    }
    let mut selects: HashSet<(Resolved, Resolved)> = HashSet::new();
    let mut selectors: HashSet<(Resolved, Resolved)> = HashSet::new();
    for &(x, y) in &matched {
        let (i1, i2) = (fa.inst(x), fb.inst(y));
        let (ops1, ops2) = (&i1.operands, &i2.operands);
        // Codegen's commutative reordering: swap the second side's
        // operands when that resolves more positions to one value.
        let commutes = i1.opcode.is_commutative()
            || (i1.opcode == Opcode::ICmp
                && i1.int_predicate().is_some_and(|p| p.is_commutative()));
        let swap =
            config.reorder_commutative && commutes && ops1.len() == 2 && ops2.len() == 2 && {
                let same = |a: Value, b: Value| (resolve(true, a) == resolve(false, b)) as usize;
                same(ops1[0], ops2[1]) + same(ops1[1], ops2[0])
                    > same(ops1[0], ops2[0]) + same(ops1[1], ops2[1])
            };
        for (k, &o1) in ops1.iter().enumerate() {
            let Some(&o2) = ops2.get(if swap { 1 - k } else { k }) else { continue };
            let (Some(r1), Some(r2)) = (resolve(true, o1), resolve(false, o2)) else {
                completes = false;
                continue;
            };
            if matches!(o1, Value::Func(_)) || matches!(o2, Value::Func(_)) {
                completes &= r1 == r2;
            } else if r1 != r2 {
                completes &= setup.has_func_id;
                if matches!(o1, Value::Block(_)) {
                    selectors.insert((r1, r2));
                } else {
                    selects.insert((r1, r2));
                }
            }
        }
    }
    let condbr = cm.inst_cost(&Inst::new(Opcode::CondBr, void, Vec::new()));
    let select = cm.inst_cost(&Inst::new(Opcode::Select, void, Vec::new()));
    size_merged += condbr * (fid_branches + selectors.len() as u64) + select * selects.len() as u64;

    // The return casts' integer containers.
    let mut ret_casts: Vec<(u32, u32)> = Vec::new();
    if !matches!(types.get(setup.ret.base), Type::Void) {
        for &(first, x) in &rets {
            let f = if first { fa } else { fb };
            let Some(&v) = f.inst(x).operands.first() else { continue };
            match classify_cast_widen(types, f.value_ty(v, types), setup.ret.base) {
                Ok(CastShape::Chain { from, to }) => {
                    let pair = (from as u32, to as u32);
                    if !ret_casts.contains(&pair) {
                        ret_casts.push(pair);
                    }
                }
                Ok(_) => {}
                Err(_) => completes = false,
            }
        }
    }
    pointees.retain(|&t| t != void);
    pointees.sort_unstable();
    pointees.dedup();

    let merged_params = setup.params.merged_tys.len() as u64;
    let mut epsilon = 0;
    for (func, ret_orig) in [(f1, setup.ret.ty1), (f2, setup.ret.ty2)] {
        if !can_delete(module, func) {
            epsilon +=
                thunk_epsilon(cm, merged_params, ret_cast_cost(module, ret_orig, setup.ret.base));
        }
    }
    let size_f1 = cm.body_size(module, f1);
    let size_f2 = cm.body_size(module, f2);
    let bound = (size_f1 + size_f2) as i64 - (size_merged + epsilon) as i64;
    let replay = completes.then(|| TypeReplay {
        ret: setup.ret.base,
        params: setup.params.merged_tys.clone(),
        ret_casts,
        slot_pointees: pointees,
    });
    Ok(DeltaBound { bound, size_merged, epsilon, replay })
}

/// A check of the Δ gate against real builds, filled in by
/// [`crate::pipeline::run_fmsa_pipeline_audited`]: every attempt's bound
/// is compared with the real Δ of its build, and every gate-skipped
/// attempt is built and discarded in place so that the type store its
/// replay leaves can be compared with the real one.
#[derive(Debug, Clone, Default)]
pub struct GateAudit {
    /// Attempts whose bound was compared with the Δ of a real build.
    pub checked: usize,
    /// Gate-skipped attempts, each built and discarded for the audit.
    pub skipped: usize,
    /// Gate-skipped attempts whose replay interned at least one new type.
    pub replays_interning: usize,
    /// Attempts whose real Δ exceeded the bound (`subject/candidate: …`).
    pub violations: Vec<String>,
    /// Skipped attempts whose replay left a different type store than
    /// the build and discard did.
    pub replay_mismatches: Vec<String>,
}

impl GateAudit {
    /// Whether no attempt broke the bound and every replay was exact.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.replay_mismatches.is_empty()
    }

    /// Compares `bound` with the real Δ of the `(f1, f2)` build.
    pub(crate) fn check_built(
        &mut self,
        module: &Module,
        f1: FuncId,
        f2: FuncId,
        bound: &DeltaBound,
        real: i64,
    ) {
        self.checked += 1;
        if real > bound.bound {
            self.violations.push(format!(
                "{}/{}: real Δ {real} > bound {}",
                module.func(f1).name,
                module.func(f2).name,
                bound.bound
            ));
        }
    }

    /// Builds and discards a gate-skipped merge in place, exactly as the
    /// sequential driver would, checking its Δ against `bound` and the
    /// store it leaves against [`DeltaBound::replay_skip`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn check_skip(
        &mut self,
        module: &mut Module,
        cm: &CostModel,
        sites: &CallSiteIndex,
        f1: FuncId,
        f2: FuncId,
        seq1: &[Entry],
        seq2: &[Entry],
        alignment: &Alignment,
        bound: &DeltaBound,
        config: &MergeConfig,
    ) {
        self.skipped += 1;
        let mut replayed = module.types.clone();
        bound.replay_skip(&mut replayed);
        if replayed.len() > module.types.len() {
            self.replays_interning += 1;
        }
        let built = crate::merge::merge_pair_aligned(
            module,
            f1,
            f2,
            seq1.to_vec(),
            seq2.to_vec(),
            alignment.clone(),
            config,
        );
        if let Ok(info) = built {
            let real = evaluate_indexed(module, cm, &info, sites).delta;
            module.remove_function(info.merged);
            self.check_built(module, f1, f2, bound, real);
        }
        let types = &module.types;
        let same = replayed.len() == types.len()
            && (0..types.len()).all(|k| {
                let id = TyId::from_index(k);
                replayed.get(id) == types.get(id)
            });
        if !same {
            self.replay_mismatches.push(format!(
                "{}/{}: replay left {} types, build and discard {}",
                module.func(f1).name,
                module.func(f2).name,
                replayed.len(),
                types.len()
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::{merge_pair, MergeConfig};
    use fmsa_ir::{FuncBuilder, Linkage, Value};
    use fmsa_target::TargetArch;

    /// A pair of near-identical medium functions; merging should win.
    fn similar_pair(m: &mut fmsa_ir::Module) -> (FuncId, FuncId) {
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
        let mut out = Vec::new();
        for (name, c) in [("fa", 3), ("fb", 4)] {
            let f = m.create_function(name, fn_ty);
            let mut b = FuncBuilder::new(m, f);
            let e = b.block("entry");
            b.switch_to(e);
            let mut v = Value::Param(0);
            for k in 0..10 {
                v = b.add(v, b.const_i32(k));
                v = b.mul(v, Value::Param(1));
            }
            v = b.add(v, b.const_i32(c)); // the single difference
            b.ret(Some(v));
            out.push(f);
        }
        (out[0], out[1])
    }

    #[test]
    fn near_identical_pair_is_profitable() {
        let mut m = fmsa_ir::Module::new("m");
        let (fa, fb) = similar_pair(&mut m);
        let info = merge_pair(&mut m, fa, fb, &MergeConfig::default()).expect("merges");
        let cm = CostModel::new(TargetArch::X86_64);
        let report = evaluate(&m, &cm, &info);
        assert!(report.is_profitable(), "{report:?}");
        assert!(report.size_merged < report.size_f1 + report.size_f2);
    }

    #[test]
    fn dissimilar_pair_is_unprofitable() {
        let mut m = fmsa_ir::Module::new("m");
        let i32t = m.types.i32();
        let f64t = m.types.f64();
        let fn1 = m.types.func(i32t, vec![i32t]);
        let fn2 = m.types.func(f64t, vec![f64t]);
        let fa = m.create_function("fa", fn1);
        {
            let mut b = FuncBuilder::new(&mut m, fa);
            let e = b.block("entry");
            b.switch_to(e);
            let mut v = Value::Param(0);
            for k in 0..8 {
                v = b.xor(v, b.const_i32(k));
            }
            b.ret(Some(v));
        }
        let fb = m.create_function("fb", fn2);
        {
            let mut b = FuncBuilder::new(&mut m, fb);
            let e = b.block("entry");
            b.switch_to(e);
            let mut v = Value::Param(0);
            for _ in 0..8 {
                v = b.fdiv(v, b.const_f64(1.5));
            }
            b.ret(Some(v));
        }
        let info = merge_pair(&mut m, fa, fb, &MergeConfig::default()).expect("merge builds");
        let cm = CostModel::new(TargetArch::X86_64);
        let report = evaluate(&m, &cm, &info);
        assert!(!report.is_profitable(), "{report:?}");
    }

    #[test]
    fn evaluate_indexed_matches_direct_scan() {
        let mut m = fmsa_ir::Module::new("m");
        let (fa, fb) = similar_pair(&mut m);
        // A caller of fa so the call-site count is non-trivial.
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let caller = m.create_function("caller", fn_ty);
        {
            let mut b = FuncBuilder::new(&mut m, caller);
            let e = b.block("entry");
            b.switch_to(e);
            let r = b.call(fa, vec![Value::Param(0), Value::Param(0)]);
            b.ret(Some(r));
        }
        let idx = crate::callsites::CallSiteIndex::build(&m);
        let info = merge_pair(&mut m, fa, fb, &MergeConfig::default()).expect("merges");
        let cm = CostModel::new(TargetArch::X86_64);
        // The index was built before the (uncommitted) merged function was
        // added; evaluate_indexed must still agree with the direct scan.
        assert_eq!(evaluate_indexed(&m, &cm, &info, &idx), evaluate(&m, &cm, &info));
    }

    #[test]
    fn delta_bound_bounds_real_delta() {
        use crate::linearize::linearize;
        use crate::merge::{align_with, merge_pair_aligned};
        let mut m = fmsa_ir::Module::new("m");
        let (fa, fb) = similar_pair(&mut m);
        let cfg = MergeConfig::default();
        let cm = CostModel::new(TargetArch::X86_64);
        let seq1 = linearize(m.func(fa));
        let seq2 = linearize(m.func(fb));
        let al = align_with(&m, fa, fb, &seq1, &seq2, &cfg.scoring, cfg.algorithm);
        let bound = delta_bound(&m, &cm, fa, fb, &seq1, &seq2, &al, &cfg).expect("set-up");
        let info = merge_pair_aligned(&mut m, fa, fb, seq1, seq2, al, &cfg).expect("merges");
        let report = evaluate(&m, &cm, &info);
        assert!(bound.bound >= report.delta, "bound {bound:?} must bound real {report:?}");
        // The one differing constant costs a select, which the bound
        // charges exactly: only the identifier parameter's extra argument
        // separates it from the real size here.
        assert!(bound.size_merged <= report.size_merged);
        assert!(bound.bound > 0, "a near-identical pair must stay in play: {bound:?}");
    }

    #[test]
    fn delta_bound_rules_out_dissimilar_pair_and_replays_its_types() {
        use crate::linearize::linearize;
        use crate::merge::{align_with, merge_pair_aligned};
        let mut m = fmsa_ir::Module::new("m");
        let i32t = m.types.i32();
        let f64t = m.types.f64();
        let fn1 = m.types.func(i32t, vec![i32t]);
        let fn2 = m.types.func(f64t, vec![f64t]);
        let fa = m.create_function("fa", fn1);
        let fb = m.create_function("fb", fn2);
        for (f, float) in [(fa, false), (fb, true)] {
            let mut b = FuncBuilder::new(&mut m, f);
            let e = b.block("entry");
            b.switch_to(e);
            let mut v = Value::Param(0);
            for k in 0..8 {
                v = if float { b.fdiv(v, b.const_f64(1.5)) } else { b.xor(v, b.const_i32(k)) };
            }
            b.ret(Some(v));
        }
        let cfg = MergeConfig::default();
        let cm = CostModel::new(TargetArch::X86_64);
        let seq1 = linearize(m.func(fa));
        let seq2 = linearize(m.func(fb));
        let al = align_with(&m, fa, fb, &seq1, &seq2, &cfg.scoring, cfg.algorithm);
        let bound = delta_bound(&m, &cm, fa, fb, &seq1, &seq2, &al, &cfg).expect("set-up");
        assert!(bound.bound <= 0, "{bound:?}");
        // The i32 side's `ret` widens to the f64 base through `i32` → `i64`
        // containers (both pre-interned by every store, like every
        // container a scalar return cast can name — the replay keeps them
        // anyway, so it stays exact for any future type).
        assert_eq!(bound.replay.as_ref().map(|r| r.ret_casts.clone()), Some(vec![(32, 64)]));
        // Demotion could intern `i32*` or `double*`, which this module
        // lacks, so a skip could not replay the build yet.
        assert!(!bound.rules_out(&m.types));
        m.types.ptr(i32t);
        m.types.ptr(f64t);
        assert!(bound.rules_out(&m.types));
        let mut replayed = m.types.clone();
        bound.replay_skip(&mut replayed);
        let before = m.types.len();
        let info = merge_pair_aligned(&mut m, fa, fb, seq1, seq2, al, &cfg).expect("builds");
        assert!(evaluate(&m, &cm, &info).delta <= bound.bound);
        m.remove_function(info.merged);
        assert!(m.types.len() > before, "the build interns its merged signature");
        assert_eq!(replayed.len(), m.types.len());
        for k in 0..m.types.len() {
            let id = fmsa_ir::TyId::from_index(k);
            assert_eq!(replayed.get(id), m.types.get(id), "type {k}");
        }
    }

    #[test]
    fn external_linkage_pays_thunk_costs() {
        let mut m = fmsa_ir::Module::new("m");
        let (fa, fb) = similar_pair(&mut m);
        let info = merge_pair(&mut m, fa, fb, &MergeConfig::default()).expect("merges");
        let cm = CostModel::new(TargetArch::X86_64);
        let deletable = evaluate(&m, &cm, &info);
        m.func_mut(fa).linkage = Linkage::External;
        m.func_mut(fb).linkage = Linkage::External;
        let thunked = evaluate(&m, &cm, &info);
        assert!(
            thunked.epsilon > deletable.epsilon,
            "thunks cost more than call-graph updates with no callers"
        );
        assert!(thunked.delta < deletable.delta);
    }
}
