//! Code generation for merged functions (paper §III-E).
//!
//! Two passes over the aligned sequence, exactly as the paper describes:
//! "The first pass creates the basic blocks and instructions. The second
//! assigns the correct operands to the instructions and connects the basic
//! blocks. A two-passes approach is required in order to handle loops, due
//! to cyclic data dependencies."
//!
//! Matched entries are cloned once and shared; maximal runs of unmatched
//! entries become *divergent regions*: each side's entries are cloned into
//! a guarded chain of blocks and a `condbr` on the function identifier
//! selects the chain, producing the diamond shapes the paper describes.
//! Pass 1's block layout is one operation sequence (`layout`), which the
//! pre-codegen Δ bound dry-runs without building anything.
//! Operand mismatches in matched instructions become `select func_id`
//! instructions (or selector blocks for label operands, with landing-pad
//! hoisting when the targets are landing blocks).
//!
//! After operand assignment a *register demotion* fix-up restores SSA
//! dominance: values defined on one side's chain but consumed by shared
//! code are demoted to stack slots, mirroring the memory-demotion strategy
//! the original CGO'19 implementation relied on (later replaced by SalSSA).

use super::{MergeError, ParamMerge, RetInfo};
use crate::linearize::Entry;
use fmsa_align::{Alignment, Step};
use fmsa_ir::{
    cfg, passes, BlockId, ExtraData, FuncId, Function, Inst, InstId, Module, Opcode, TyId, Type,
    Value,
};
use std::collections::HashMap;

/// Everything [`generate`] needs.
#[derive(Debug)]
pub struct CodegenInput {
    /// First function (the `func_id == true` side).
    pub f1: FuncId,
    /// Second function (the `func_id == false` side).
    pub f2: FuncId,
    /// Linearization of `f1`.
    pub seq1: Vec<Entry>,
    /// Linearization of `f2`.
    pub seq2: Vec<Entry>,
    /// Alignment of the two sequences.
    pub alignment: Alignment,
    /// Merged parameter list.
    pub params: ParamMerge,
    /// Merged return type.
    pub ret: RetInfo,
    /// Symbol name for the merged function.
    pub name: String,
    /// Reorder commutative operands to minimize selects.
    pub reorder_commutative: bool,
}

/// What pass 1 creates a block for; the kind is also the block's name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockKind {
    /// The merged function's entry block.
    Entry,
    /// A matched label pair (`m`).
    Shared,
    /// A matched instruction that needs a fresh block (`j`).
    Join,
    /// One side's chain in a divergent region (`d`).
    Chain,
    /// The forwarding block of a diamond's empty side (`skip`).
    Skip,
}

impl BlockKind {
    fn name(self) -> &'static str {
        match self {
            BlockKind::Entry => "entry",
            BlockKind::Shared => "m",
            BlockKind::Join => "j",
            BlockKind::Chain => "d",
            BlockKind::Skip => "skip",
        }
    }
}

/// One step of pass 1, in the order [`generate`] performs it. Blocks are
/// numbered in creation order (0 is the entry block), and so are clones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LayoutOp {
    /// Creates the next block.
    Block(BlockKind),
    /// Names `block` for a label of the first function, the second, or
    /// both (a matched label pair).
    Label { block: u32, l1: Option<BlockId>, l2: Option<BlockId> },
    /// Appends the next clone to `block`: both sources of a matched
    /// column, or one side's instruction of a divergent region.
    Clone { block: u32, i1: Option<InstId>, i2: Option<InstId> },
    /// Appends `br to` to `block`.
    Br { block: u32, to: u32 },
    /// Appends `condbr func_id, then, els` to `block`.
    CondBr { block: u32, then: u32, els: u32 },
    /// Appends `unreachable` to `block`.
    Unreachable { block: u32 },
}

/// Pass 1 of codegen as an operation sequence: the shared blocks of
/// matched columns, each divergent region's two chains behind an
/// identifier `condbr`, the bridge `br`s that join them, and the
/// `unreachable`s closing any block left open. [`generate`] builds the
/// merged body by executing it; the pre-codegen Δ bound
/// ([`crate::profitability::delta_bound`]) analyses the same sequence.
///
/// # Errors
///
/// [`MergeError::InvalidCodegen`] for a label aligned with an
/// instruction, or a divergent region entered from an open block when
/// the merged function takes no identifier.
pub(crate) fn layout(
    f1: &Function,
    f2: &Function,
    seq1: &[Entry],
    seq2: &[Entry],
    alignment: &Alignment,
    has_func_id: bool,
) -> Result<Vec<LayoutOp>, MergeError> {
    let steps = &alignment.steps;
    let mut lay = Layout { f1, f2, ops: Vec::with_capacity(steps.len() * 2), open: Vec::new() };
    let entry = lay.block(BlockKind::Entry);
    let mut cur: Option<u32> = Some(entry);
    let mut pending: Vec<u32> = Vec::new();
    let mut k = 0;
    while k < steps.len() {
        if let Step::Both { i, j, matched: true } = steps[k] {
            k += 1;
            match (seq1[i], seq2[j]) {
                (Entry::Label(b1), Entry::Label(b2)) => {
                    let nb = lay.block(BlockKind::Shared);
                    lay.bridge(cur, &mut pending, nb);
                    lay.ops.push(LayoutOp::Label { block: nb, l1: Some(b1), l2: Some(b2) });
                    cur = Some(nb);
                }
                (Entry::Inst(i1), Entry::Inst(i2)) => {
                    let block = match cur {
                        Some(c) if lay.open[c as usize] => c,
                        _ => {
                            let nb = lay.block(BlockKind::Join);
                            lay.bridge(cur, &mut pending, nb);
                            cur = Some(nb);
                            nb
                        }
                    };
                    lay.clone_into(block, Some(i1), Some(i2));
                }
                _ => {
                    return Err(MergeError::InvalidCodegen("label aligned with instruction".into()))
                }
            }
            continue;
        }
        // A divergent region: the maximal run of unmatched columns. Each
        // side's entries become one chain, the first side's laid out first.
        let end = steps[k..]
            .iter()
            .position(|s| matches!(s, Step::Both { matched: true, .. }))
            .map_or(steps.len(), |n| k + n);
        let region = &steps[k..end];
        k = end;
        let left = region.iter().filter_map(|s| match *s {
            Step::Both { i, .. } | Step::Left(i) => Some(seq1[i]),
            Step::Right(_) => None,
        });
        let right = region.iter().filter_map(|s| match *s {
            Step::Both { j, .. } | Step::Right(j) => Some(seq2[j]),
            Step::Left(_) => None,
        });
        let bridge_needed = cur.is_some_and(|c| lay.open[c as usize]);
        let (lentry, lpend) = lay.chain(left, true, bridge_needed);
        let (rentry, rpend) = lay.chain(right, false, bridge_needed);
        if let Some(c) = cur.filter(|_| bridge_needed) {
            if !has_func_id {
                return Err(MergeError::InvalidCodegen(
                    "divergent region without function identifier".into(),
                ));
            }
            let (then, els) = (
                lentry.expect("materialized left entry"),
                rentry.expect("materialized right entry"),
            );
            lay.ops.push(LayoutOp::CondBr { block: c, then, els });
            lay.open[c as usize] = false;
        }
        pending.extend(lpend);
        pending.extend(rpend);
        cur = None;
    }
    // Defensive: a well-formed input leaves no dangling control flow.
    for b in cur.filter(|&c| lay.open[c as usize]).into_iter().chain(pending) {
        lay.ops.push(LayoutOp::Unreachable { block: b });
    }
    Ok(lay.ops)
}

/// The instruction a [`LayoutOp::Clone`] copies: the first side's for a
/// matched column. The flag tells whether it is the first side's.
pub(crate) fn clone_source<'a>(
    f1: &'a Function,
    f2: &'a Function,
    i1: Option<InstId>,
    i2: Option<InstId>,
) -> (bool, &'a Inst) {
    match (i1, i2) {
        (Some(i), _) => (true, f1.inst(i)),
        (None, Some(i)) => (false, f2.inst(i)),
        (None, None) => unreachable!("clone without source"),
    }
}

/// The state of [`layout`]: the operations so far and which blocks are
/// still open (their last instruction is not a terminator).
struct Layout<'a> {
    f1: &'a Function,
    f2: &'a Function,
    ops: Vec<LayoutOp>,
    open: Vec<bool>,
}

impl Layout<'_> {
    fn block(&mut self, kind: BlockKind) -> u32 {
        self.ops.push(LayoutOp::Block(kind));
        self.open.push(true);
        (self.open.len() - 1) as u32
    }

    fn br(&mut self, block: u32, to: u32) {
        self.ops.push(LayoutOp::Br { block, to });
        self.open[block as usize] = false;
    }

    fn clone_into(&mut self, block: u32, i1: Option<InstId>, i2: Option<InstId>) {
        let (_, src) = clone_source(self.f1, self.f2, i1, i2);
        self.open[block as usize] = !src.is_terminator();
        self.ops.push(LayoutOp::Clone { block, i1, i2 });
    }

    /// Ends the open current block and every pending chain end with a
    /// `br` to `to`.
    fn bridge(&mut self, cur: Option<u32>, pending: &mut Vec<u32>, to: u32) {
        if let Some(c) = cur.filter(|&c| self.open[c as usize]) {
            self.br(c, to);
        }
        for b in pending.drain(..) {
            self.br(b, to);
        }
    }

    /// Lays out one side's chain of a divergent region. Returns its entry
    /// block (if materialized) and the block it leaves open, if any.
    fn chain(
        &mut self,
        entries: impl Iterator<Item = Entry>,
        first_side: bool,
        bridge_needed: bool,
    ) -> (Option<u32>, Option<u32>) {
        let mut entry: Option<u32> = None;
        let mut cb: Option<u32> = None;
        for e in entries {
            match e {
                Entry::Label(b) => {
                    let nb = self.block(BlockKind::Chain);
                    if let Some(p) = cb.filter(|&p| self.open[p as usize]) {
                        self.br(p, nb);
                    }
                    let (l1, l2) = if first_side { (Some(b), None) } else { (None, Some(b)) };
                    self.ops.push(LayoutOp::Label { block: nb, l1, l2 });
                    entry.get_or_insert(nb);
                    cb = Some(nb);
                }
                Entry::Inst(i) => {
                    let block = match cb {
                        Some(c) => c,
                        None => {
                            let nb = self.block(BlockKind::Chain);
                            entry = Some(nb);
                            cb = Some(nb);
                            nb
                        }
                    };
                    let (i1, i2) = if first_side { (Some(i), None) } else { (None, Some(i)) };
                    self.clone_into(block, i1, i2);
                }
            }
        }
        if entry.is_none() && bridge_needed {
            // Empty side of a diamond: a forwarding block to be wired to
            // the continuation (threaded away afterwards).
            let nb = self.block(BlockKind::Skip);
            entry = Some(nb);
            cb = Some(nb);
        }
        (entry, cb.filter(|&c| self.open[c as usize]))
    }
}

/// Record of one cloned instruction for the operand pass.
#[derive(Debug, Clone, Copy)]
struct CloneRec {
    id: InstId,
    src1: Option<InstId>,
    src2: Option<InstId>,
}

struct Codegen {
    f1c: Function,
    f2c: Function,
    mf: FuncId,
    map1: HashMap<Value, Value>,
    map2: HashMap<Value, Value>,
    clones: Vec<CloneRec>,
    params: ParamMerge,
    ret: RetInfo,
    func_id: Option<Value>,
    reorder_commutative: bool,
    selector_blocks: HashMap<(BlockId, BlockId), BlockId>,
    /// CSE cache for operand selects: clones are fixed up in creation
    /// (= block-position) order, so a select created for an earlier
    /// instruction of the same block dominates later ones.
    select_cache: HashMap<(BlockId, Value, Value), Value>,
}

/// Generates the merged function, returning its id. On any failure the
/// partially built function is removed from the module.
///
/// # Errors
///
/// [`MergeError::InvalidCodegen`] if the produced function fails
/// verification (a bug guard, asserted against by tests).
pub fn generate(module: &mut Module, input: CodegenInput) -> Result<FuncId, MergeError> {
    let f1c = module.func(input.f1).clone();
    let f2c = module.func(input.f2).clone();
    let fn_ty = module.types.func(input.ret.base, input.params.merged_tys.clone());
    let mf = module.create_function(input.name.clone(), fn_ty);
    let func_id = input.params.has_func_id.then_some(Value::Param(0));
    let mut cg = Codegen {
        f1c,
        f2c,
        mf,
        map1: HashMap::new(),
        map2: HashMap::new(),
        clones: Vec::new(),
        params: input.params,
        ret: input.ret,
        func_id,
        reorder_commutative: input.reorder_commutative,
        selector_blocks: HashMap::new(),
        select_cache: HashMap::new(),
    };
    let result =
        layout(&cg.f1c, &cg.f2c, &input.seq1, &input.seq2, &input.alignment, func_id.is_some())
            .and_then(|ops| {
                cg.pass1(module, &ops);
                cg.pass2(module)
            })
            .and_then(|()| {
                fix_dominance(module, mf);
                passes::thread_trivial_blocks(module.func_mut(mf));
                passes::remove_unreachable_blocks(module.func_mut(mf));
                let errs = fmsa_ir::verify_function(module, mf);
                if errs.is_empty() {
                    Ok(())
                } else {
                    Err(MergeError::InvalidCodegen(format!("{}", errs[0])))
                }
            });
    match result {
        Ok(()) => Ok(mf),
        Err(e) => {
            module.remove_function(mf);
            Err(e)
        }
    }
}

impl Codegen {
    // ----- pass 1: blocks and instruction skeletons ------------------------

    /// Executes the [`layout`] operations against the module.
    fn pass1(&mut self, module: &mut Module, ops: &[LayoutOp]) {
        let void = module.types.void();
        let mut blocks: Vec<BlockId> = Vec::new();
        for &op in ops {
            let f = module.func_mut(self.mf);
            match op {
                LayoutOp::Block(kind) => blocks.push(f.add_block(kind.name())),
                LayoutOp::Label { block, l1, l2 } => {
                    let nb = Value::Block(blocks[block as usize]);
                    if let Some(b) = l1 {
                        self.map1.insert(Value::Block(b), nb);
                    }
                    if let Some(b) = l2 {
                        self.map2.insert(Value::Block(b), nb);
                    }
                }
                LayoutOp::Clone { block, i1, i2 } => {
                    let (_, src) = clone_source(&self.f1c, &self.f2c, i1, i2);
                    let cid = f.append_inst(blocks[block as usize], self.skeleton(src));
                    if let Some(i) = i1 {
                        self.map1.insert(Value::Inst(i), Value::Inst(cid));
                    }
                    if let Some(i) = i2 {
                        self.map2.insert(Value::Inst(i), Value::Inst(cid));
                    }
                    self.clones.push(CloneRec { id: cid, src1: i1, src2: i2 });
                }
                LayoutOp::Br { block, to } => {
                    let to = Value::Block(blocks[to as usize]);
                    f.append_inst(blocks[block as usize], Inst::new(Opcode::Br, void, vec![to]));
                }
                LayoutOp::CondBr { block, then, els } => {
                    let fid = self.func_id.expect("layout checked the function identifier");
                    let ops = vec![
                        fid,
                        Value::Block(blocks[then as usize]),
                        Value::Block(blocks[els as usize]),
                    ];
                    f.append_inst(blocks[block as usize], Inst::new(Opcode::CondBr, void, ops));
                }
                LayoutOp::Unreachable { block } => {
                    f.append_inst(
                        blocks[block as usize],
                        Inst::new(Opcode::Unreachable, void, vec![]),
                    );
                }
            }
        }
    }

    fn skeleton(&self, src: &Inst) -> Inst {
        Inst::with_extra(src.opcode, src.ty, Vec::new(), src.extra.clone())
    }

    // ----- pass 2: operands -------------------------------------------------

    fn pass2(&mut self, module: &mut Module) -> Result<(), MergeError> {
        let clones = self.clones.clone();
        for rec in clones {
            match (rec.src1, rec.src2) {
                (Some(i1), Some(i2)) => self.fix_matched(module, rec.id, i1, i2)?,
                (Some(i1), None) => self.fix_single(module, rec.id, i1, true)?,
                (None, Some(i2)) => self.fix_single(module, rec.id, i2, false)?,
                (None, None) => unreachable!("clone without source"),
            }
        }
        Ok(())
    }

    fn resolve(&self, first_side: bool, v: Value) -> Result<Value, MergeError> {
        let (map, pmap) = if first_side {
            (&self.map1, &self.params.map1)
        } else {
            (&self.map2, &self.params.map2)
        };
        Ok(match v {
            Value::Inst(_) | Value::Block(_) => *map
                .get(&v)
                .ok_or_else(|| MergeError::InvalidCodegen(format!("unmapped operand {v:?}")))?,
            Value::Param(p) => Value::Param(pmap[p as usize] as u32),
            other => other,
        })
    }

    /// Type of `v` as seen by the original function of `first_side`.
    fn orig_ty(&self, module: &Module, first_side: bool, v: Value) -> Option<TyId> {
        let f = if first_side { &self.f1c } else { &self.f2c };
        match v {
            Value::Block(_) | Value::Func(_) => None,
            _ => Some(f.value_ty(v, &module.types)),
        }
    }

    /// Type of a merged value.
    fn merged_ty(&self, module: &Module, v: Value) -> Option<TyId> {
        match v {
            Value::Block(_) | Value::Func(_) => None,
            _ => Some(module.func(self.mf).value_ty(v, &module.types)),
        }
    }

    /// Inserts a lossless bitcast before `user` if `v`'s merged type
    /// differs from `want`.
    fn adapt(
        &self,
        module: &mut Module,
        user: InstId,
        v: Value,
        want: TyId,
    ) -> Result<Value, MergeError> {
        let Some(have) = self.merged_ty(module, v) else { return Ok(v) };
        if have == want {
            return Ok(v);
        }
        if !module.types.can_lossless_bitcast(have, want) {
            return Err(MergeError::InvalidCodegen(format!(
                "operand type {} not adaptable to {}",
                module.types.display(have),
                module.types.display(want)
            )));
        }
        let cast =
            module.func_mut(self.mf).insert_before(user, Inst::new(Opcode::BitCast, want, vec![v]));
        Ok(Value::Inst(cast))
    }

    fn fix_single(
        &mut self,
        module: &mut Module,
        cid: InstId,
        src: InstId,
        first_side: bool,
    ) -> Result<(), MergeError> {
        let (orig_ops, opcode) = {
            let f = if first_side { &self.f1c } else { &self.f2c };
            let inst = f.inst(src);
            (inst.operands.clone(), inst.opcode)
        };
        let mut new_ops = Vec::with_capacity(orig_ops.len());
        for &op in &orig_ops {
            let mapped = self.resolve(first_side, op)?;
            let adapted = match self.orig_ty(module, first_side, op) {
                Some(want) => self.adapt(module, cid, mapped, want)?,
                None => mapped,
            };
            new_ops.push(adapted);
        }
        if opcode == Opcode::Ret {
            new_ops = self.fix_ret_operands(module, cid, new_ops, first_side)?;
        }
        module.func_mut(self.mf).inst_mut(cid).operands = new_ops;
        Ok(())
    }

    fn fix_matched(
        &mut self,
        module: &mut Module,
        cid: InstId,
        i1: InstId,
        i2: InstId,
    ) -> Result<(), MergeError> {
        let (ops1, opcode, pred_commutes) = {
            let inst = self.f1c.inst(i1);
            let pc = inst.int_predicate().map(|p| p.is_commutative()).unwrap_or(false);
            (inst.operands.clone(), inst.opcode, pc)
        };
        let mut ops2 = self.f2c.inst(i2).operands.clone();
        // Commutative operand reordering (§III-E): swap the second
        // function's operands when that increases matches.
        let commutative = opcode.is_commutative() || (opcode == Opcode::ICmp && pred_commutes);
        if self.reorder_commutative && commutative && ops1.len() == 2 && ops2.len() == 2 {
            let score = |a: &Value, b: &Value, x: &Value, y: &Value| {
                let m1 = self.resolve(true, *a).ok() == self.resolve(false, *x).ok();
                let m2 = self.resolve(true, *b).ok() == self.resolve(false, *y).ok();
                m1 as usize + m2 as usize
            };
            let straight = score(&ops1[0], &ops1[1], &ops2[0], &ops2[1]);
            let swapped = score(&ops1[0], &ops1[1], &ops2[1], &ops2[0]);
            if swapped > straight {
                ops2.swap(0, 1);
            }
        }
        let mut new_ops = Vec::with_capacity(ops1.len());
        for (&o1, &o2) in ops1.iter().zip(&ops2) {
            let v1 = self.resolve(true, o1)?;
            let v2 = self.resolve(false, o2)?;
            if let (Value::Block(b1), Value::Block(b2)) = (v1, v2) {
                if b1 == b2 {
                    new_ops.push(v1);
                } else {
                    let sel = self.selector_block(module, b1, b2)?;
                    new_ops.push(Value::Block(sel));
                }
                continue;
            }
            if matches!(v1, Value::Func(_)) || matches!(v2, Value::Func(_)) {
                // Callees: equivalence guarantees both sides target the
                // same function.
                if v1 != v2 {
                    return Err(MergeError::InvalidCodegen(
                        "matched calls with different callees".into(),
                    ));
                }
                new_ops.push(v1);
                continue;
            }
            // Value operands: adapt both to the first function's view.
            let want = self
                .orig_ty(module, true, o1)
                .ok_or_else(|| MergeError::InvalidCodegen("untyped operand".into()))?;
            let a1 = self.adapt(module, cid, v1, want)?;
            let a2 = self.adapt(module, cid, v2, want)?;
            if a1 == a2 {
                new_ops.push(a1);
            } else {
                let fid = self.func_id.ok_or_else(|| {
                    MergeError::InvalidCodegen("operand select without function id".into())
                })?;
                let block = module.func(self.mf).inst(cid).parent;
                let key = (block, a1, a2);
                let sel = match self.select_cache.get(&key) {
                    Some(&v) => v,
                    None => {
                        let sel = module
                            .func_mut(self.mf)
                            .insert_before(cid, Inst::new(Opcode::Select, want, vec![fid, a1, a2]));
                        self.select_cache.insert(key, Value::Inst(sel));
                        Value::Inst(sel)
                    }
                };
                new_ops.push(sel);
            }
        }
        if opcode == Opcode::Ret {
            new_ops = self.fix_ret_operands(module, cid, new_ops, true)?;
        }
        module.func_mut(self.mf).inst_mut(cid).operands = new_ops;
        Ok(())
    }

    /// Converts a `ret`'s operand to the merged base return type (§III-E).
    fn fix_ret_operands(
        &mut self,
        module: &mut Module,
        cid: InstId,
        ops: Vec<Value>,
        first_side: bool,
    ) -> Result<Vec<Value>, MergeError> {
        let base = self.ret.base;
        if matches!(module.types.get(base), Type::Void) {
            return Ok(Vec::new());
        }
        match ops.first() {
            None => {
                // A void side merged with a value-returning one: the
                // call-sites of the void side discard the value.
                Ok(vec![Value::Undef(base)])
            }
            Some(&v) => {
                let have = self
                    .merged_ty(module, v)
                    .ok_or_else(|| MergeError::InvalidCodegen("untyped return value".into()))?;
                let casted = cast_chain(module, self.mf, cid, v, have, base)?;
                let _ = first_side;
                Ok(vec![casted])
            }
        }
    }

    /// "If the operands are labels ... we perform operand selection through
    /// divergent control flow, using a new basic block and a conditional
    /// branch on the function identifier. If the two labels represent
    /// landing blocks, we hoist the landing-pad instruction to the new
    /// common basic block" (§III-E).
    fn selector_block(
        &mut self,
        module: &mut Module,
        b1: BlockId,
        b2: BlockId,
    ) -> Result<BlockId, MergeError> {
        if let Some(&x) = self.selector_blocks.get(&(b1, b2)) {
            return Ok(x);
        }
        let fid = self.func_id.ok_or_else(|| {
            MergeError::InvalidCodegen("label selector without function id".into())
        })?;
        let void = module.types.void();
        let x = module.func_mut(self.mf).add_block("sel");
        let landing1 = module.func(self.mf).is_landing_block(b1);
        let landing2 = module.func(self.mf).is_landing_block(b2);
        if landing1 && landing2 {
            // Hoist one landing pad into the selector block, convert the
            // originals to normal blocks, and forward the pad value.
            let p1 = module.func(self.mf).block(b1).insts[0];
            let p2 = module.func(self.mf).block(b2).insts[0];
            let pad = module.func(self.mf).inst(p1).clone();
            let hoisted = module.func_mut(self.mf).append_inst(x, pad);
            module.func_mut(self.mf).replace_all_uses(Value::Inst(p1), Value::Inst(hoisted));
            module.func_mut(self.mf).replace_all_uses(Value::Inst(p2), Value::Inst(hoisted));
            module.func_mut(self.mf).remove_inst(p1);
            module.func_mut(self.mf).remove_inst(p2);
        } else if landing1 != landing2 {
            return Err(MergeError::InvalidCodegen(
                "selector between landing and normal block".into(),
            ));
        }
        module.func_mut(self.mf).append_inst(
            x,
            Inst::new(Opcode::CondBr, void, vec![fid, Value::Block(b1), Value::Block(b2)]),
        );
        self.selector_blocks.insert((b1, b2), x);
        Ok(x)
    }
}

/// Builds the cast chain `have -> base` before `user` (§III-E return-type
/// merging): lossless bitcast when widths agree, otherwise a zext through
/// an integer container of the wider width.
fn cast_chain(
    module: &mut Module,
    mf: FuncId,
    user: InstId,
    v: Value,
    have: TyId,
    want: TyId,
) -> Result<Value, MergeError> {
    let (sh, sw) = match classify_cast_widen(&module.types, have, want)? {
        CastShape::Identity => return Ok(v),
        CastShape::Bitcast => {
            let c =
                module.func_mut(mf).insert_before(user, Inst::new(Opcode::BitCast, want, vec![v]));
            return Ok(Value::Inst(c));
        }
        CastShape::Chain { from, to } => (from, to),
    };
    let int_h = module.types.int(sh as u32);
    let int_w = module.types.int(sw as u32);
    let mut cur = v;
    if have != int_h {
        let c =
            module.func_mut(mf).insert_before(user, Inst::new(Opcode::BitCast, int_h, vec![cur]));
        cur = Value::Inst(c);
    }
    if sh != sw {
        let c = module.func_mut(mf).insert_before(user, Inst::new(Opcode::ZExt, int_w, vec![cur]));
        cur = Value::Inst(c);
    }
    if want != int_w {
        let c =
            module.func_mut(mf).insert_before(user, Inst::new(Opcode::BitCast, want, vec![cur]));
        cur = Value::Inst(c);
    }
    Ok(cur)
}

/// Classifies the `have -> want` return-value conversion [`cast_chain`]
/// builds. A `Chain` interns `int(from)` and then `int(to)` — the
/// pre-codegen Δ bound replays exactly that for the merges it skips.
///
/// # Errors
///
/// The unsized/narrowing rejections the cast itself raises.
pub(crate) fn classify_cast_widen(
    types: &fmsa_ir::TypeStore,
    have: TyId,
    want: TyId,
) -> Result<CastShape, MergeError> {
    if have == want {
        return Ok(CastShape::Identity);
    }
    if types.can_lossless_bitcast(have, want) {
        return Ok(CastShape::Bitcast);
    }
    let (Some(sh), Some(sw)) = (types.bit_size(have), types.bit_size(want)) else {
        return Err(MergeError::InvalidCodegen("unsized return cast".into()));
    };
    if sh > sw {
        return Err(MergeError::InvalidCodegen("return cast must widen, not narrow".into()));
    }
    Ok(CastShape::Chain { from: sh, to: sw })
}

/// How a result conversion is built: the return casts of [`cast_chain`]
/// and the `base -> want` call-site/thunk casts. One classification is
/// shared by planning ([`prepare_cast_tys`], the Δ bound's type replay)
/// and execution ([`cast_chain`], [`cast_back_in`]), so the set of
/// container types a plan interns can never drift from what the cast
/// later builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CastShape {
    /// `base == want`: no instruction at all.
    Identity,
    /// Lossless bitcast: a single `bitcast`, no container types.
    Bitcast,
    /// A zext or trunc through the integer containers `int(from)` →
    /// `int(to)`.
    Chain {
        /// Bit width of the converted value's type.
        from: u64,
        /// Bit width of the target type.
        to: u64,
    },
}

/// Classifies the `base -> want` conversion [`cast_back_in`] would build.
///
/// # Errors
///
/// The unsized/widening rejections the cast itself raises.
pub(crate) fn classify_cast_back(
    types: &fmsa_ir::TypeStore,
    base: TyId,
    want: TyId,
) -> Result<CastShape, MergeError> {
    if base == want {
        return Ok(CastShape::Identity);
    }
    if types.can_lossless_bitcast(base, want) {
        return Ok(CastShape::Bitcast);
    }
    let (Some(sb), Some(sw)) = (types.bit_size(base), types.bit_size(want)) else {
        return Err(MergeError::InvalidCodegen("unsized return cast".into()));
    };
    if sb < sw {
        return Err(MergeError::InvalidCodegen("call-site cast must narrow, not widen".into()));
    }
    Ok(CastShape::Chain { from: sb, to: sw })
}

/// Interns the integer container types [`cast_back_in`] needs for a
/// `base -> want` conversion: `int(bits(base))` first, `int(bits(want))`
/// second. A no-op (nothing interned) when the conversion is an identity
/// or a lossless bitcast.
///
/// # Errors
///
/// The same unsized/widening rejections the cast itself would raise.
pub(crate) fn prepare_cast_tys(
    types: &mut fmsa_ir::TypeStore,
    base: TyId,
    want: TyId,
) -> Result<(), MergeError> {
    if let CastShape::Chain { from, to } = classify_cast_back(types, base, want)? {
        types.int(from as u32);
        types.int(to as u32);
    }
    Ok(())
}

/// The reverse conversion of [`cast_chain`], used at call sites and
/// thunks: `base -> want` via truncation through integer containers.
/// Inserts before `user`, directly into the function: it only *reads*
/// the type store, so it runs while the function is borrowed mutably
/// from its module, after [`prepare_cast_tys`] interned the container
/// types.
pub(crate) fn cast_back_in(
    f: &mut Function,
    types: &fmsa_ir::TypeStore,
    user: InstId,
    v: Value,
    base: TyId,
    want: TyId,
) -> Result<Value, MergeError> {
    let (sb, sw) = match classify_cast_back(types, base, want)? {
        CastShape::Identity => return Ok(v),
        CastShape::Bitcast => {
            let c = f.insert_before(user, Inst::new(Opcode::BitCast, want, vec![v]));
            return Ok(Value::Inst(c));
        }
        CastShape::Chain { from, to } => (from, to),
    };
    let not_prepared = || MergeError::InvalidCodegen("cast container type not pre-interned".into());
    let int_b = types.lookup(&Type::Int(sb as u32)).ok_or_else(not_prepared)?;
    let int_w = types.lookup(&Type::Int(sw as u32)).ok_or_else(not_prepared)?;
    let mut cur = v;
    if base != int_b {
        let c = f.insert_before(user, Inst::new(Opcode::BitCast, int_b, vec![cur]));
        cur = Value::Inst(c);
    }
    if sb != sw {
        let c = f.insert_before(user, Inst::new(Opcode::Trunc, int_w, vec![cur]));
        cur = Value::Inst(c);
    }
    if want != int_w {
        let c = f.insert_before(user, Inst::new(Opcode::BitCast, want, vec![cur]));
        cur = Value::Inst(c);
    }
    Ok(cur)
}

/// Restores SSA dominance by demoting registers to stack slots: any value
/// defined on one side of a merge diamond but consumed by shared code gets
/// an entry-block slot, a store after its definition, and loads before the
/// offending uses — the memory-demotion strategy of the original CGO'19
/// code generator.
fn fix_dominance(module: &mut Module, mf: FuncId) {
    let dom = cfg::Dominators::compute(module.func(mf));
    // Collect (user, operand position, def) triples violating dominance.
    let mut violations: Vec<(InstId, usize, InstId)> = Vec::new();
    {
        let f = module.func(mf);
        for u in f.inst_ids() {
            let ub = f.inst(u).parent;
            for (k, op) in f.inst(u).operands.iter().enumerate() {
                let Value::Inst(d) = *op else { continue };
                let db = f.inst(d).parent;
                if db != ub && !dom.dominates(db, ub) {
                    violations.push((u, k, d));
                }
            }
        }
    }
    if violations.is_empty() {
        return;
    }
    let entry = module.func(mf).entry();
    let void = module.types.void();
    let mut slots: HashMap<InstId, InstId> = HashMap::new();
    // Create slots and stores per unique demoted def.
    let defs: std::collections::BTreeSet<InstId> = violations.iter().map(|&(_, _, d)| d).collect();
    for d in defs {
        let ty = module.func(mf).inst(d).ty;
        let ptr_ty = module.types.ptr(ty);
        let slot = module.func_mut(mf).insert_inst(
            entry,
            0,
            Inst::with_extra(Opcode::Alloca, ptr_ty, vec![], ExtraData::Alloca { allocated: ty }),
        );
        // Store after the definition (or at the top of the normal
        // destination when the definition is an invoke).
        let f = module.func(mf);
        let d_inst = f.inst(d);
        if d_inst.opcode == Opcode::Invoke {
            let n = d_inst.operands.len();
            let normal = d_inst.operands[n - 2].as_block().expect("invoke normal dest");
            module.func_mut(mf).insert_inst(
                normal,
                0,
                Inst::new(Opcode::Store, void, vec![Value::Inst(d), Value::Inst(slot)]),
            );
        } else {
            let parent = d_inst.parent;
            let pos = f.block(parent).insts.iter().position(|&i| i == d).expect("def in its block");
            module.func_mut(mf).insert_inst(
                parent,
                pos + 1,
                Inst::new(Opcode::Store, void, vec![Value::Inst(d), Value::Inst(slot)]),
            );
        }
        slots.insert(d, slot);
    }
    // Replace each violating use with a load inserted before the user.
    // Violations arrive in block-position order (inst_ids is layout
    // order), so a load inserted before the *first* user of a def in a
    // block dominates every later user in that block — reuse it.
    let mut load_cache: HashMap<(InstId, BlockId), Value> = HashMap::new();
    for (u, k, d) in violations {
        let ub = module.func(mf).inst(u).parent;
        let loaded = match load_cache.get(&(d, ub)) {
            Some(&v) => v,
            None => {
                let slot = slots[&d];
                let ty = module.func(mf).inst(d).ty;
                let load = module
                    .func_mut(mf)
                    .insert_before(u, Inst::new(Opcode::Load, ty, vec![Value::Inst(slot)]));
                let v = Value::Inst(load);
                load_cache.insert((d, ub), v);
                v
            }
        };
        module.func_mut(mf).inst_mut(u).operands[k] = loaded;
    }
}
