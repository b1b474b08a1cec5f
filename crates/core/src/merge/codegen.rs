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

/// A maximal run of aligned columns.
#[derive(Debug)]
enum Seg {
    Match(Vec<(Entry, Entry)>),
    Diverge { left: Vec<Entry>, right: Vec<Entry> },
}

fn build_segments(alignment: &Alignment, seq1: &[Entry], seq2: &[Entry]) -> Vec<Seg> {
    let mut segs: Vec<Seg> = Vec::new();
    for step in &alignment.steps {
        match *step {
            Step::Both { i, j, matched: true } => {
                if let Some(Seg::Match(pairs)) = segs.last_mut() {
                    pairs.push((seq1[i], seq2[j]));
                } else {
                    segs.push(Seg::Match(vec![(seq1[i], seq2[j])]));
                }
            }
            Step::Both { i, j, matched: false } => {
                push_diverge(&mut segs, Some(seq1[i]), Some(seq2[j]));
            }
            Step::Left(i) => push_diverge(&mut segs, Some(seq1[i]), None),
            Step::Right(j) => push_diverge(&mut segs, None, Some(seq2[j])),
        }
    }
    segs
}

fn push_diverge(segs: &mut Vec<Seg>, l: Option<Entry>, r: Option<Entry>) {
    if let Some(Seg::Diverge { left, right }) = segs.last_mut() {
        left.extend(l);
        right.extend(r);
        return;
    }
    segs.push(Seg::Diverge { left: l.into_iter().collect(), right: r.into_iter().collect() });
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
    let segs = build_segments(&input.alignment, &input.seq1, &input.seq2);
    let result = cg.pass1(module, &segs).and_then(|()| cg.pass2(module)).and_then(|()| {
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

    fn pass1(&mut self, module: &mut Module, segs: &[Seg]) -> Result<(), MergeError> {
        let entry = module.func_mut(self.mf).add_block("entry");
        let mut cur: Option<BlockId> = Some(entry);
        let mut pending: Vec<BlockId> = Vec::new();

        for seg in segs {
            match seg {
                Seg::Match(pairs) => {
                    for &(e1, e2) in pairs {
                        match (e1, e2) {
                            (Entry::Label(b1), Entry::Label(b2)) => {
                                let nb = module.func_mut(self.mf).add_block("m");
                                self.bridge(module, &mut cur, &mut pending, nb);
                                self.map1.insert(Value::Block(b1), Value::Block(nb));
                                self.map2.insert(Value::Block(b2), Value::Block(nb));
                                cur = Some(nb);
                            }
                            (Entry::Inst(i1), Entry::Inst(i2)) => {
                                let need_new = match cur {
                                    Some(c) => self.terminated(module, c),
                                    None => true,
                                };
                                if need_new {
                                    let nb = module.func_mut(self.mf).add_block("j");
                                    self.bridge(module, &mut cur, &mut pending, nb);
                                    cur = Some(nb);
                                }
                                let block = cur.expect("insertion block");
                                let skel = self.skeleton(self.f1c.inst(i1));
                                let cid = module.func_mut(self.mf).append_inst(block, skel);
                                self.map1.insert(Value::Inst(i1), Value::Inst(cid));
                                self.map2.insert(Value::Inst(i2), Value::Inst(cid));
                                self.clones.push(CloneRec {
                                    id: cid,
                                    src1: Some(i1),
                                    src2: Some(i2),
                                });
                            }
                            _ => {
                                return Err(MergeError::InvalidCodegen(
                                    "label aligned with instruction".into(),
                                ))
                            }
                        }
                    }
                }
                Seg::Diverge { left, right } => {
                    let bridge_needed = match cur {
                        Some(c) => !self.terminated(module, c),
                        None => false,
                    };
                    let (lentry, lpend) = self.build_chain(module, left, true, bridge_needed);
                    let (rentry, rpend) = self.build_chain(module, right, false, bridge_needed);
                    if bridge_needed {
                        let c = cur.expect("bridge implies current block");
                        let fid = self.func_id.ok_or_else(|| {
                            MergeError::InvalidCodegen(
                                "divergent region without function identifier".into(),
                            )
                        })?;
                        let void = module.types.void();
                        let (le, re) = (
                            lentry.expect("materialized left entry"),
                            rentry.expect("materialized right entry"),
                        );
                        module.func_mut(self.mf).append_inst(
                            c,
                            Inst::new(
                                Opcode::CondBr,
                                void,
                                vec![fid, Value::Block(le), Value::Block(re)],
                            ),
                        );
                    }
                    pending.extend(lpend);
                    pending.extend(rpend);
                    cur = None;
                }
            }
        }
        // Defensive: a well-formed input leaves no dangling control flow.
        if let Some(c) = cur {
            if !self.terminated(module, c) {
                let void = module.types.void();
                module
                    .func_mut(self.mf)
                    .append_inst(c, Inst::new(Opcode::Unreachable, void, vec![]));
            }
        }
        for b in pending {
            let void = module.types.void();
            module.func_mut(self.mf).append_inst(b, Inst::new(Opcode::Unreachable, void, vec![]));
        }
        Ok(())
    }

    /// Builds one side's chain of guarded blocks. Returns the entry block
    /// (if materialized) and the blocks left without terminators.
    fn build_chain(
        &mut self,
        module: &mut Module,
        entries: &[Entry],
        first_side: bool,
        bridge_needed: bool,
    ) -> (Option<BlockId>, Vec<BlockId>) {
        let mut entry: Option<BlockId> = None;
        let mut cb: Option<BlockId> = None;
        for &e in entries {
            match e {
                Entry::Label(b) => {
                    let nb = module.func_mut(self.mf).add_block("d");
                    if let Some(p) = cb {
                        if !self.terminated(module, p) {
                            let void = module.types.void();
                            module.func_mut(self.mf).append_inst(
                                p,
                                Inst::new(Opcode::Br, void, vec![Value::Block(nb)]),
                            );
                        }
                    }
                    let map = if first_side { &mut self.map1 } else { &mut self.map2 };
                    map.insert(Value::Block(b), Value::Block(nb));
                    entry.get_or_insert(nb);
                    cb = Some(nb);
                }
                Entry::Inst(i) => {
                    if cb.is_none() {
                        let nb = module.func_mut(self.mf).add_block("d");
                        entry.get_or_insert(nb);
                        cb = Some(nb);
                    }
                    let block = cb.expect("chain block");
                    let src = if first_side { &self.f1c } else { &self.f2c };
                    let skel = self.skeleton(src.inst(i));
                    let cid = module.func_mut(self.mf).append_inst(block, skel);
                    let map = if first_side { &mut self.map1 } else { &mut self.map2 };
                    map.insert(Value::Inst(i), Value::Inst(cid));
                    self.clones.push(CloneRec {
                        id: cid,
                        src1: first_side.then_some(i),
                        src2: (!first_side).then_some(i),
                    });
                }
            }
        }
        if entry.is_none() && bridge_needed {
            // Empty side of a diamond: a forwarding block to be wired to
            // the continuation (threaded away afterwards).
            let nb = module.func_mut(self.mf).add_block("skip");
            entry = Some(nb);
            cb = Some(nb);
        }
        let pending = match cb {
            Some(c) if !self.terminated(module, c) => vec![c],
            _ => Vec::new(),
        };
        (entry, pending)
    }

    fn bridge(
        &mut self,
        module: &mut Module,
        cur: &mut Option<BlockId>,
        pending: &mut Vec<BlockId>,
        to: BlockId,
    ) {
        let void = module.types.void();
        if let Some(c) = *cur {
            if !self.terminated(module, c) {
                module
                    .func_mut(self.mf)
                    .append_inst(c, Inst::new(Opcode::Br, void, vec![Value::Block(to)]));
            }
        }
        for b in pending.drain(..) {
            module
                .func_mut(self.mf)
                .append_inst(b, Inst::new(Opcode::Br, void, vec![Value::Block(to)]));
        }
    }

    fn terminated(&self, module: &Module, b: BlockId) -> bool {
        module.func(self.mf).terminator(b).is_some()
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
/// second — the exact order the historical lazy cast interned them, so a
/// planning step running this up front evolves the store identically. A
/// no-op (nothing interned) when the conversion is an identity or a
/// lossless bitcast.
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
/// Inserts before `user`, directly into a (possibly detached) function:
/// it only *reads* the type store, so the partitioned call-site rewrite
/// can run it on worker threads after [`prepare_cast_tys`] interned the
/// container types sequentially.
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
