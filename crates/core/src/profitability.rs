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
use crate::merge::codegen::{self, classify_cast_widen, CastShape, LayoutOp};
use crate::merge::{merge_setup, MergeConfig, MergeError, MergeInfo, MergeSetup};
use crate::thunks::{can_delete, count_call_sites};
use fmsa_align::Alignment;
use fmsa_ir::cfg::DomTree;
use fmsa_ir::{FuncId, Function, IdHashMap, Inst, Module, Opcode, TyId, Type, TypeStore, Value};
use fmsa_target::CostModel;
use std::collections::HashMap;

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
/// calls are counted here from its body, and so are those of `pending`,
/// another uncommitted body still in the module (oracle mode's best
/// merge so far). The result equals what [`evaluate`] would compute over
/// the same module state.
pub fn evaluate_indexed(
    module: &Module,
    cm: &CostModel,
    info: &MergeInfo,
    sites: &CallSiteIndex,
    pending: Option<FuncId>,
) -> ProfitReport {
    let merged_out = outgoing_calls(module.func(info.merged));
    let pending_out = pending.map(|p| outgoing_calls(module.func(p))).unwrap_or_default();
    let calls = |out: &IdHashMap<FuncId, usize>, f| out.get(&f).copied().unwrap_or(0);
    evaluate_counted(module, cm, info, &|f| {
        sites.count(f) + calls(&merged_out, f) + calls(&pending_out, f)
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
    let merged_params = info.params.merged_tys.len() as u64;
    let ret_cast = ret_cast_cost(module, ret_orig, info.ret.base);
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
    /// How the merged body was charged.
    pub charge: BodyCharge,
    /// What building and discarding the body interns, or `None` when the
    /// build could fail part-way and so intern less.
    replay: Option<TypeReplay>,
    /// The cheap-tier size and slot pointees of a pair the cheap terms
    /// already rule out but that took the dry run because a slot pointer
    /// type was missing; see [`DeltaBound::refresh`].
    cheap_tier: Option<(u64, Vec<TyId>)>,
}

/// How [`delta_bound`] charged the merged body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BodyCharge {
    /// The cheap terms alone: they already rule the pair out.
    Cheap,
    /// The CFG dry run: the cheap terms plus branches, per-block selects
    /// and register demotion, on the blocks that stay reachable.
    DryRun,
    /// The cheap terms, for a shape the dry run does not model (φs, a
    /// selector between two landing blocks) or a build that cannot
    /// complete.
    Fallback,
}

/// The types a build-and-discard leaves in the store, in interning order.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TypeReplay {
    /// The merged signature `func(ret.base, merged_tys)`, interned first.
    ret: TyId,
    params: Vec<TyId>,
    /// The return casts' integer containers `int(from)`, `int(to)`.
    ret_casts: Vec<(u32, u32)>,
    /// The demotion slots' pointer types, interned last.
    slots: Slots,
}

/// The stack-slot pointer types `ptr(T)` register demotion interns.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Slots {
    /// Exactly these pointees, in demotion order (the dry run knows
    /// which values codegen demotes).
    Exact(Vec<TyId>),
    /// Some subset of these pointees (every cloned value's type): a skip
    /// can only replay the build when all their pointer types exist.
    AnyOf(Vec<TyId>),
}

/// Whether every pointee's pointer type is already interned: the build
/// can then intern no new slot type.
fn slot_ptrs_exist(types: &TypeStore, pointees: &[TyId]) -> bool {
    pointees.iter().all(|&t| types.lookup(&Type::Ptr { pointee: t }).is_some())
}

impl DeltaBound {
    /// Whether the gate may skip code generation: Δ ≤ 0 is proven, and
    /// [`DeltaBound::replay_skip`] leaves `types` exactly as the build
    /// would. Without a dry run that needs every demotion-slot pointer
    /// type the build could intern to exist already.
    pub fn rules_out(&self, types: &TypeStore) -> bool {
        self.bound <= 0
            && self.replay.as_ref().is_some_and(|r| match &r.slots {
                Slots::Exact(_) => true,
                Slots::AnyOf(pointees) => slot_ptrs_exist(types, pointees),
            })
    }

    /// Brings a bound computed against an earlier state of `types` up to
    /// date, for functions that have not changed since: [`delta_bound`]
    /// charges the cheap tier instead of the dry run once every slot
    /// pointer type exists, and the store only grows. The pipeline
    /// refreshes the bounds its prepare stage computed, so the commit
    /// stage gates on — and logs — exactly the bound an inline
    /// computation would give, at every thread count.
    pub fn refresh(&mut self, types: &TypeStore) {
        if !self.cheap_tier.as_ref().is_some_and(|(_, p)| slot_ptrs_exist(types, p)) {
            return;
        }
        let (cheap, pointees) = self.cheap_tier.take().expect("checked above");
        self.bound += self.size_merged as i64 - cheap as i64;
        self.size_merged = cheap;
        self.charge = BodyCharge::Cheap;
        if let Some(r) = &mut self.replay {
            r.slots = Slots::AnyOf(pointees);
        }
    }

    /// Interns what building and discarding the merged body would have
    /// left behind: the merged signature, the return-cast containers,
    /// then the demotion slots' pointer types. Type ids feed the MinHash
    /// fingerprints, so a skipped build must evolve the store exactly
    /// like a real one. Call only when [`DeltaBound::rules_out`] holds
    /// for `types`.
    pub fn replay_skip(&self, types: &mut TypeStore) {
        let Some(r) = &self.replay else { return };
        types.func(r.ret, r.params.clone());
        for &(from, to) in &r.ret_casts {
            types.int(from);
            types.int(to);
        }
        if let Slots::Exact(pointees) = &r.slots {
            for &t in pointees {
                types.ptr(t);
            }
        }
    }
}

/// What an entry or operand becomes in the merged body, as codegen's
/// operand pass resolves it: two operands get the same value exactly when
/// their keys are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Resolved {
    /// A clone, by its index in the layout.
    Clone(u32),
    /// A pass-1 block, by its index in the layout.
    Block(u32),
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

    fn get(&self, v: Value) -> Option<Resolved> {
        match v {
            Value::Inst(i) => self.insts.get(i.index()).copied().flatten(),
            Value::Block(b) => self.blocks.get(b.index()).copied().flatten(),
            other => Some(Resolved::Value(other)),
        }
    }
}

/// One block of the merged body before register demotion: pass-1
/// blocks in layout order, then pass 2's selector blocks.
#[derive(Debug, Clone, Copy)]
struct BlockFacts {
    /// Instructions pass 1 puts here (clones and branches).
    items: u32,
    /// Cost of everything but a closing `br`.
    cost: u64,
    /// The block ends in a `br` (a bridge, or a cloned unconditional
    /// branch).
    ends_in_br: bool,
    /// The successors, as a range of [`Body::edges`].
    succs: (u32, u32),
    /// Starts with a landing pad.
    landing: bool,
    /// The clone that ends the block, if the last item is one.
    last_clone: Option<u32>,
}

impl BlockFacts {
    const EMPTY: BlockFacts = BlockFacts {
        items: 0,
        cost: 0,
        ends_in_br: false,
        succs: (0, 0),
        landing: false,
        last_clone: None,
    };
}

/// The merged body as codegen would build it, derived from the pass-1
/// layout and pass 2's operand resolution without building anything.
struct Body {
    blocks: Vec<BlockFacts>,
    /// Successor lists of all blocks, back to back.
    edges: Vec<u32>,
    /// Each clone's block.
    clone_block: Vec<u32>,
    /// Each clone's type (the first side's, for a matched column).
    clone_ty: Vec<TyId>,
    /// `(def, user block)` for every clone operand resolving to a clone.
    uses: Vec<(u32, u32)>,
    /// `(invoke clone, normal destination)`, in clone order: demotion
    /// stores an invoke's value at the top of its normal destination.
    invokes: Vec<(u32, u32)>,
    /// `(block, pair)` for every mismatched value operand; `pair` numbers
    /// the distinct operand pairs of `pairs`.
    selects: Vec<(u32, u32)>,
    pairs: HashMap<(Resolved, Resolved), u32>,
    /// The selector block of each mismatched label pair.
    selectors: HashMap<(u32, u32), u32>,
    /// Identifier `condbr`s pass 1 emits.
    fid_branches: u64,
    /// Cost of the pass-1 clones, without `br`s.
    clone_cost: u64,
    /// Return-cast integer containers, in interning order.
    ret_casts: Vec<(u32, u32)>,
    /// Every operand resolves, and pass 2 can build every select,
    /// selector and return cast: the build runs to completion.
    completes: bool,
    /// A shape the dry run does not model.
    unmodeled: bool,
}

impl Body {
    /// Replays pass 1 ([`codegen::layout`], whose errors it returns) and
    /// pass 2's operand resolution.
    fn resolve(
        module: &Module,
        cm: &CostModel,
        (fa, fb): (&Function, &Function),
        (seq1, seq2): (&[Entry], &[Entry]),
        alignment: &Alignment,
        setup: &MergeSetup,
    ) -> Result<Body, MergeError> {
        let ops = codegen::layout(fa, fb, seq1, seq2, alignment, setup.has_func_id)?;
        let types = &module.types;
        let void = types.void();
        let cost_of = |op: Opcode| cm.inst_cost(&Inst::new(op, void, Vec::new()));
        let condbr = cost_of(Opcode::CondBr);
        // Most layout ops are clones, and most clones use another clone:
        // sizing from the layout spares the per-clone vectors their growth.
        let mut body = Body {
            blocks: Vec::new(),
            edges: Vec::new(),
            clone_block: Vec::with_capacity(ops.len()),
            clone_ty: Vec::with_capacity(ops.len()),
            uses: Vec::with_capacity(ops.len()),
            invokes: Vec::new(),
            selects: Vec::new(),
            pairs: HashMap::new(),
            selectors: HashMap::new(),
            fid_branches: 0,
            clone_cost: 0,
            ret_casts: Vec::new(),
            completes: true,
            unmodeled: false,
        };
        let mut side1 = SideMap::for_seq(seq1);
        let mut side2 = SideMap::for_seq(seq2);
        let source = |i1, i2| codegen::clone_source(fa, fb, i1, i2);
        // Pass 1: blocks, clones and the branches between them.
        for &op in &ops {
            let (block, cost, ends_in_br, succs, clone) = match op {
                LayoutOp::Block(_) => {
                    body.blocks.push(BlockFacts::EMPTY);
                    continue;
                }
                LayoutOp::Label { block, l1, l2 } => {
                    for (map, l) in [(&mut side1, l1), (&mut side2, l2)] {
                        if let Some(b) = l {
                            map.blocks[b.index()] = Some(Resolved::Block(block));
                        }
                    }
                    continue;
                }
                LayoutOp::Clone { block, i1, i2 } => {
                    let k = body.clone_block.len() as u32;
                    for (map, i) in [(&mut side1, i1), (&mut side2, i2)] {
                        if let Some(i) = i {
                            map.insts[i.index()] = Some(Resolved::Clone(k));
                        }
                    }
                    let (_, inst) = source(i1, i2);
                    body.clone_block.push(block);
                    body.clone_ty.push(inst.ty);
                    body.unmodeled |= inst.opcode == Opcode::Phi;
                    let facts = &mut body.blocks[block as usize];
                    facts.landing |= facts.items == 0 && inst.opcode == Opcode::LandingPad;
                    let (cost, br) = match inst.opcode {
                        Opcode::Br => (0, true),
                        _ => (cm.inst_cost(inst), false),
                    };
                    body.clone_cost += cost;
                    (block, cost, br, (0, 0), Some(k))
                }
                LayoutOp::Br { block, to } => {
                    body.edges.push(to);
                    (block, 0, true, (body.edges.len() as u32 - 1, 1), None)
                }
                LayoutOp::CondBr { block, then, els } => {
                    body.fid_branches += 1;
                    body.edges.extend([then, els]);
                    (block, condbr, false, (body.edges.len() as u32 - 2, 2), None)
                }
                LayoutOp::Unreachable { block } => {
                    (block, cost_of(Opcode::Unreachable), false, (0, 0), None)
                }
            };
            let facts = &mut body.blocks[block as usize];
            facts.items += 1;
            facts.cost += cost;
            facts.ends_in_br = ends_in_br;
            facts.succs = succs;
            facts.last_clone = clone;
        }
        // Pass 2: operands, selects, selector blocks and return casts, in
        // clone order as codegen assigns them.
        let resolve = |first: bool, v: Value| -> Option<Resolved> {
            match v {
                Value::Param(p) => {
                    let slots = if first { &setup.params.map1 } else { &setup.params.map2 };
                    slots.get(p as usize).map(|&k| Resolved::Param(k))
                }
                _ => (if first { &side1 } else { &side2 }).get(v),
            }
        };
        let mut targets: Vec<u32> = Vec::new();
        let clones = ops.iter().filter_map(|op| match *op {
            LayoutOp::Clone { i1, i2, .. } => Some((i1, i2)),
            _ => None,
        });
        for (k, (i1, i2)) in clones.enumerate() {
            let block = body.clone_block[k];
            targets.clear();
            let (first, inst) = source(i1, i2);
            if let (true, Some(y)) = (first, i2) {
                let (a, b) = (inst, fb.inst(y));
                let (ops1, ops2) = (&a.operands, &b.operands);
                // Codegen's commutative reordering: swap the second side's
                // operands when that resolves more positions to one value.
                let commutes = a.opcode.is_commutative()
                    || (a.opcode == Opcode::ICmp
                        && a.int_predicate().is_some_and(|p| p.is_commutative()));
                let swap = commutes && ops1.len() == 2 && ops2.len() == 2 && {
                    let same =
                        |x: Value, y: Value| (resolve(true, x) == resolve(false, y)) as usize;
                    same(ops1[0], ops2[1]) + same(ops1[1], ops2[0])
                        > same(ops1[0], ops2[0]) + same(ops1[1], ops2[1])
                };
                for (n, &o1) in ops1.iter().enumerate() {
                    let Some(&o2) = ops2.get(if swap { 1 - n } else { n }) else { continue };
                    let (Some(r1), Some(r2)) = (resolve(true, o1), resolve(false, o2)) else {
                        body.completes = false;
                        continue;
                    };
                    match (r1, r2) {
                        (Resolved::Block(t1), Resolved::Block(t2)) if t1 == t2 => targets.push(t1),
                        (Resolved::Block(t1), Resolved::Block(t2)) => {
                            body.completes &= setup.has_func_id;
                            targets.push(body.selector(t1, t2, condbr));
                        }
                        (Resolved::Block(_), _) | (_, Resolved::Block(_)) => body.completes = false,
                        _ if matches!(o1, Value::Func(_)) || matches!(o2, Value::Func(_)) => {
                            body.completes &= r1 == r2;
                        }
                        _ => {
                            for r in [r1, r2] {
                                if let Resolved::Clone(d) = r {
                                    body.uses.push((d, block));
                                }
                            }
                            if r1 != r2 {
                                body.completes &= setup.has_func_id;
                                let next = body.pairs.len() as u32;
                                let pair = *body.pairs.entry((r1, r2)).or_insert(next);
                                body.selects.push((block, pair));
                            }
                        }
                    }
                }
            } else {
                for &o in &inst.operands {
                    match resolve(first, o) {
                        None => body.completes = false,
                        Some(Resolved::Block(t)) => targets.push(t),
                        Some(Resolved::Clone(d)) => body.uses.push((d, block)),
                        Some(_) => {}
                    }
                }
            }
            if body.blocks[block as usize].last_clone == Some(k as u32) && inst.is_terminator() {
                let start = body.edges.len() as u32;
                body.edges.extend_from_slice(&targets);
                body.blocks[block as usize].succs = (start, targets.len() as u32);
            }
            match inst.opcode {
                Opcode::Invoke => {
                    if let Some(&normal) = targets.first() {
                        body.invokes.push((k as u32, normal));
                    }
                }
                Opcode::Ret if !matches!(types.get(setup.ret.base), Type::Void) => {
                    let f = if first { fa } else { fb };
                    let Some(&v) = inst.operands.first() else { continue };
                    match classify_cast_widen(types, f.value_ty(v, types), setup.ret.base) {
                        Ok(CastShape::Chain { from, to }) => {
                            let pair = (from as u32, to as u32);
                            if !body.ret_casts.contains(&pair) {
                                body.ret_casts.push(pair);
                            }
                            // `cast_chain` widens through one `zext`.
                            if from < to {
                                body.blocks[block as usize].cost += cost_of(Opcode::ZExt);
                            }
                        }
                        Ok(_) => {}
                        Err(_) => body.completes = false,
                    }
                }
                _ => {}
            }
        }
        Ok(body)
    }

    /// The selector block for the label pair `(t1, t2)`, created on first
    /// use like `selector_block` does.
    fn selector(&mut self, t1: u32, t2: u32, condbr: u64) -> u32 {
        if let Some(&s) = self.selectors.get(&(t1, t2)) {
            return s;
        }
        let (l1, l2) = (self.blocks[t1 as usize].landing, self.blocks[t2 as usize].landing);
        if l1 && l2 {
            // Codegen hoists the landing pads into the selector block.
            self.unmodeled = true;
        } else if l1 != l2 {
            self.completes = false;
        }
        let s = self.blocks.len() as u32;
        let start = self.edges.len() as u32;
        self.edges.extend([t1, t2]);
        self.blocks.push(BlockFacts {
            cost: condbr,
            ends_in_br: false,
            succs: (start, 2),
            ..BlockFacts::EMPTY
        });
        self.selectors.insert((t1, t2), s);
        s
    }

    fn succs(&self, b: usize) -> &[u32] {
        let (start, len) = self.blocks[b].succs;
        &self.edges[start as usize..(start + len) as usize]
    }

    /// Lower bound on the merged body's size from the cheap terms: every
    /// clone but a `br`, every identifier and selector `condbr`, one
    /// select per distinct mismatched operand pair.
    fn cheap_size(&self, cm: &CostModel, types: &TypeStore) -> u64 {
        let void = types.void();
        let condbr = cm.inst_cost(&Inst::new(Opcode::CondBr, void, Vec::new()));
        let select = cm.inst_cost(&Inst::new(Opcode::Select, void, Vec::new()));
        self.clone_cost
            + condbr * (self.fid_branches + self.selectors.len() as u64)
            + select * self.pairs.len() as u64
    }

    /// The type of every cloned value but `void`, each once: the
    /// pointees demotion could make a slot for.
    fn pointees(&self, types: &TypeStore) -> Vec<TyId> {
        let void = types.void();
        let mut pointees: Vec<TyId> = Vec::new();
        for &t in &self.clone_ty {
            // Few distinct types, each cloned many times in a row.
            if t != void && pointees.last() != Some(&t) && !pointees.contains(&t) {
                pointees.push(t);
            }
        }
        pointees
    }

    /// The dry run: lower bound on the merged body's size after register
    /// demotion, trivial-block threading and unreachable-block removal,
    /// plus the pointees of the demotion slots in creation order.
    fn dry_run(&self, cm: &CostModel, types: &TypeStore) -> (u64, Vec<TyId>) {
        let void = types.void();
        let cost_of = |op: Opcode| cm.inst_cost(&Inst::new(op, void, Vec::new()));
        // The same tree `cfg::Dominators` gives `fix_dominance`.
        let dom = DomTree::compute(self.blocks.len(), |b| self.succs(b));
        // `fix_dominance`: a def is demoted when a user outside its block
        // is not dominated by it (unreachable blocks dominate nothing);
        // one load per (def, user block), dropped with an unreachable
        // user block.
        let mut demoted = vec![false; self.clone_block.len()];
        let mut loads: Vec<(u32, u32)> = Vec::new();
        for &(d, user) in &self.uses {
            let def = self.clone_block[d as usize];
            if def != user && !dom.dominates(def as usize, user as usize) {
                demoted[d as usize] = true;
                if dom.reachable(user as usize) {
                    loads.push((d, user));
                }
            }
        }
        loads.sort_unstable();
        loads.dedup();
        // One slot and one store per demoted def; the store follows the
        // def, or opens an invoke's normal destination.
        let mut stored = vec![false; self.blocks.len()];
        let mut slots: Vec<TyId> = Vec::new();
        let mut stores = 0u64;
        for (d, _) in demoted.iter().enumerate().filter(|(_, &x)| x) {
            slots.push(self.clone_ty[d]);
            let at = match self.invokes.binary_search_by_key(&(d as u32), |&(k, _)| k) {
                Ok(n) => self.invokes[n].1,
                Err(_) => self.clone_block[d],
            };
            if dom.reachable(at as usize) {
                stores += 1;
                stored[at as usize] = true;
            }
        }
        let mut selects: Vec<(u32, u32)> =
            self.selects.iter().copied().filter(|&(b, _)| dom.reachable(b as usize)).collect();
        selects.sort_unstable();
        selects.dedup();
        let mut size = cost_of(Opcode::Alloca) * slots.len() as u64
            + cost_of(Opcode::Store) * stores
            + cost_of(Opcode::Load) * loads.len() as u64
            + cost_of(Opcode::Select) * selects.len() as u64;
        for (b, facts) in self.blocks.iter().enumerate() {
            if !dom.reachable(b) {
                continue;
            }
            size += facts.cost;
            // Threading deletes a block that holds only its `br`.
            if facts.ends_in_br && (b == 0 || facts.items > 1 || stored[b]) {
                size += cost_of(Opcode::Br);
            }
        }
        (size, slots)
    }
}

/// A sound upper bound on the Δ [`evaluate`] would report for the merge
/// of `f1` and `f2` under `alignment`, from the alignment, the two input
/// bodies and the module alone — no code is generated. If the bound is
/// ≤ 0 the build is certain to be discarded as unprofitable.
///
/// The merged body is charged from codegen's own pass-1 layout
/// (`codegen::layout`) and pass 2's operand resolution, each term at
/// most what codegen emits. The cheap terms:
///
/// * every clone but a `br`, at its source's cost — a matched pair has
///   one opcode and operand count, so one cost;
/// * every identifier `condbr` the layout emits, and one selector
///   `condbr` per distinct mismatched label pair;
/// * one `select` per distinct mismatched operand pair of the matched
///   instructions, after codegen's own commutative swap.
///
/// When those cannot rule the pair out (or a demotion slot's pointer
/// type is missing from the store), a dry run of the merged CFG replaces
/// them: with pass 2's edges and selector blocks it computes reachability
/// and dominators exactly as `fix_dominance` does, and charges only the
/// blocks that stay reachable — their clones, `condbr`s and
/// `unreachable`s, the `br` of the entry and of every block threading
/// keeps, one `select` per distinct (block, operand pair), and one
/// `alloca`, `store` and per-(def, user block) `load` for every value
/// codegen demotes. Knowing that set exactly, a skip replays the
/// demotion slots' pointer types too.
///
/// ε is charged the exact thunk δ of each side [`can_delete`] rejects;
/// deletable sides pay a call-site term ≥ 0 and are charged nothing.
/// Linkage and address-taken never change during a pass, so a bound
/// computed while preparing a pair stays valid when it is committed.
///
/// # Errors
///
/// The set-up errors of [`merge_setup`] and the layout errors of
/// `codegen::layout`: the build fails the same way, so there is nothing
/// to bound.
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
    let types = &module.types;
    let merged_params = setup.params.merged_tys.len() as u64;
    let mut epsilon = 0;
    for (func, ret_orig) in [(f1, setup.ret.ty1), (f2, setup.ret.ty2)] {
        if !can_delete(module, func) {
            epsilon +=
                thunk_epsilon(cm, merged_params, ret_cast_cost(module, ret_orig, setup.ret.base));
        }
    }
    let inputs = (cm.body_size(module, f1) + cm.body_size(module, f2)) as i64;
    let fns = (module.func(f1), module.func(f2));
    let body = Body::resolve(module, cm, fns, (seq1, seq2), alignment, &setup)?;
    let cheap = body.cheap_size(cm, types);
    let mut cheap_tier = None;
    let (size_merged, charge, slots) = if !body.completes {
        (cheap, BodyCharge::Fallback, None)
    } else if body.unmodeled {
        (cheap, BodyCharge::Fallback, Some(Slots::AnyOf(body.pointees(types))))
    } else {
        // The dry run is only needed when the cheap terms cannot rule the
        // pair out, or a slot pointer type is missing from the store.
        let pointees = (inputs - (cheap + epsilon) as i64 <= 0).then(|| body.pointees(types));
        match pointees {
            Some(pointees) if slot_ptrs_exist(types, &pointees) => {
                (cheap, BodyCharge::Cheap, Some(Slots::AnyOf(pointees)))
            }
            pointees => {
                let (size, slots) = body.dry_run(cm, types);
                cheap_tier = pointees.map(|p| (cheap, p));
                (size, BodyCharge::DryRun, Some(Slots::Exact(slots)))
            }
        }
    };
    let replay = slots.map(|slots| TypeReplay {
        ret: setup.ret.base,
        params: setup.params.merged_tys.clone(),
        ret_casts: body.ret_casts.clone(),
        slots,
    });
    let bound = inputs - (size_merged + epsilon) as i64;
    Ok(DeltaBound { bound, size_merged, epsilon, charge, replay, cheap_tier })
}

/// A check of the Δ gate against real builds, filled in by
/// [`crate::pipeline::run_audited`]: every attempt's bound is compared
/// with the real Δ of its build, and every gate-skipped attempt is built
/// and discarded in place so that the type store its replay leaves can
/// be compared with the real one.
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
    /// paper's loop would, checking its Δ against `bound` and the
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
            let real = evaluate_indexed(module, cm, &info, sites, None).delta;
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
        assert_eq!(evaluate_indexed(&m, &cm, &info, &idx, None), evaluate(&m, &cm, &info));
        // Another uncommitted body calling fa (an oracle's pending best)
        // counts once it is named.
        let pending = m.create_function("pending", fn_ty);
        {
            let mut b = FuncBuilder::new(&mut m, pending);
            let e = b.block("entry");
            b.switch_to(e);
            let r = b.call(fa, vec![Value::Param(0), Value::Param(0)]);
            b.ret(Some(r));
        }
        let scan = evaluate(&m, &cm, &info);
        assert_ne!(evaluate_indexed(&m, &cm, &info, &idx, None), scan);
        assert_eq!(evaluate_indexed(&m, &cm, &info, &idx, Some(pending)), scan);
    }

    #[test]
    fn delta_bound_bounds_real_delta() {
        use crate::linearize::linearize;
        use crate::merge::{align, merge_pair_aligned};
        let mut m = fmsa_ir::Module::new("m");
        let (fa, fb) = similar_pair(&mut m);
        let cfg = MergeConfig::default();
        let cm = CostModel::new(TargetArch::X86_64);
        let seq1 = linearize(m.func(fa));
        let seq2 = linearize(m.func(fb));
        let al = align(&m, fa, fb, &seq1, &seq2);
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

    /// Checks that replaying `bound`'s skip leaves exactly the store that
    /// building and discarding the merge leaves, and returns the replayed
    /// store.
    fn assert_exact_replay(m: &mut fmsa_ir::Module, fa: FuncId, fb: FuncId) -> TypeStore {
        use crate::linearize::linearize;
        use crate::merge::{align, merge_pair_aligned};
        let cfg = MergeConfig::default();
        let cm = CostModel::new(TargetArch::X86_64);
        let seq1 = linearize(m.func(fa));
        let seq2 = linearize(m.func(fb));
        let al = align(m, fa, fb, &seq1, &seq2);
        let bound = delta_bound(m, &cm, fa, fb, &seq1, &seq2, &al, &cfg).expect("set-up");
        assert!(bound.rules_out(&m.types), "{bound:?}");
        let mut replayed = m.types.clone();
        bound.replay_skip(&mut replayed);
        let before = m.types.len();
        let info = merge_pair_aligned(m, fa, fb, seq1, seq2, al, &cfg).expect("builds");
        assert!(evaluate(m, &cm, &info).delta <= bound.bound);
        m.remove_function(info.merged);
        assert!(m.types.len() > before, "the build interns its merged signature");
        assert_eq!(replayed.len(), m.types.len());
        for k in 0..m.types.len() {
            let id = fmsa_ir::TyId::from_index(k);
            assert_eq!(replayed.get(id), m.types.get(id), "type {k}");
        }
        replayed
    }

    #[test]
    fn delta_bound_rules_out_dissimilar_pair_and_replays_its_types() {
        use crate::linearize::linearize;
        use crate::merge::align;
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
        let al = align(&m, fa, fb, &seq1, &seq2);
        let bound = delta_bound(&m, &cm, fa, fb, &seq1, &seq2, &al, &cfg).expect("set-up");
        assert!(bound.bound <= 0, "{bound:?}");
        // The i32 side's `ret` widens to the f64 base through `i32` → `i64`
        // containers (both pre-interned by every store, like every
        // container a scalar return cast can name — the replay keeps them
        // anyway, so it stays exact for any future type).
        assert_eq!(bound.replay.as_ref().map(|r| r.ret_casts.clone()), Some(vec![(32, 64)]));
        // Demotion could intern `i32*` or `double*`, which this module
        // lacks; the dry run knows the build demotes nothing, so the pair
        // is ruled out anyway and its skip interns neither.
        let (p32, p64) = (Type::Ptr { pointee: i32t }, Type::Ptr { pointee: f64t });
        assert_eq!(bound.charge, BodyCharge::DryRun);
        let replayed = assert_exact_replay(&mut m, fa, fb);
        assert!(replayed.lookup(&p32).is_none() && replayed.lookup(&p64).is_none());

        // Two unrelated chains whose results meet at the shared `ret`:
        // its select uses one value from each chain, so codegen demotes
        // both, and the skip interns the missing `i32*` itself.
        let fc = m.create_function("fc", fn1);
        let fd = m.create_function("fd", fn1);
        for (f, div) in [(fc, false), (fd, true)] {
            let mut b = FuncBuilder::new(&mut m, f);
            let e = b.block("entry");
            b.switch_to(e);
            let mut v = Value::Param(0);
            for k in 0..8 {
                v = if div { b.sdiv(v, b.const_i32(k + 2)) } else { b.xor(v, b.const_i32(k)) };
            }
            b.ret(Some(v));
        }
        assert!(m.types.lookup(&p32).is_none());
        let replayed = assert_exact_replay(&mut m, fc, fd);
        assert!(replayed.lookup(&p32).is_some(), "the skip interns the demotion slot's type");
        assert!(m.types.lookup(&p32).is_some());
    }

    #[test]
    fn refreshed_bound_equals_a_fresh_one_after_slot_types_appear() {
        use crate::linearize::linearize;
        use crate::merge::align;
        let mut m = fmsa_ir::Module::new("m");
        let i32t = m.types.i32();
        let f64t = m.types.f64();
        let (fn1, fn2) = (m.types.func(i32t, vec![i32t]), m.types.func(f64t, vec![f64t]));
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
        let (cfg, cm) = (MergeConfig::default(), CostModel::new(TargetArch::X86_64));
        let (seq1, seq2) = (linearize(m.func(fa)), linearize(m.func(fb)));
        let al = align(&m, fa, fb, &seq1, &seq2);
        let bound =
            |m: &fmsa_ir::Module| delta_bound(m, &cm, fa, fb, &seq1, &seq2, &al, &cfg).unwrap();
        // `i32*` and `double*` are missing, so the dry run charges the
        // body; refreshing against the same store changes nothing.
        let mut early = bound(&m);
        assert_eq!(early.charge, BodyCharge::DryRun);
        early.refresh(&m.types);
        assert_eq!(early, bound(&m));
        // Once an earlier build has interned them, the cheap tier applies,
        // and the refreshed early bound is the bound computed now.
        m.types.ptr(i32t);
        m.types.ptr(f64t);
        let now = bound(&m);
        assert_eq!(now.charge, BodyCharge::Cheap);
        early.refresh(&m.types);
        assert_eq!(early, now);
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
