//! An ergonomic builder for constructing IR.
//!
//! [`FuncBuilder`] borrows the module, tracks an insertion point and offers
//! one method per opcode, returning the result [`Value`].
//!
//! # Examples
//!
//! ```
//! use fmsa_ir::{Module, FuncBuilder, Value};
//!
//! let mut m = Module::new("demo");
//! let i32t = m.types.i32();
//! let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
//! let f = m.create_function("add2", fn_ty);
//! let mut b = FuncBuilder::new(&mut m, f);
//! let entry = b.block("entry");
//! b.switch_to(entry);
//! let sum = b.add(Value::Param(0), Value::Param(1));
//! b.ret(Some(sum));
//! assert_eq!(m.func(f).inst_count(), 2);
//! ```

use crate::inst::{ExtraData, FloatPredicate, Inst, IntPredicate, LandingPadClause, Opcode};
use crate::module::Module;
use crate::types::TyId;
use crate::value::{BlockId, FuncId, InstId, Value};

/// Builds instructions into one function of a module.
#[derive(Debug)]
pub struct FuncBuilder<'m> {
    module: &'m mut Module,
    func: FuncId,
    cursor: Option<BlockId>,
}

impl<'m> FuncBuilder<'m> {
    /// Starts building into `func` of `module`. No insertion point is set;
    /// call [`FuncBuilder::block`] and [`FuncBuilder::switch_to`] first.
    pub fn new(module: &'m mut Module, func: FuncId) -> FuncBuilder<'m> {
        FuncBuilder { module, func, cursor: None }
    }

    /// The function being built.
    pub fn func_id(&self) -> FuncId {
        self.func
    }

    /// Shared access to the underlying module.
    pub fn module(&self) -> &Module {
        self.module
    }

    /// Mutable access to the underlying module (e.g. to intern types).
    pub fn module_mut(&mut self) -> &mut Module {
        self.module
    }

    /// Appends a new block.
    pub fn block(&mut self, name: impl Into<String>) -> BlockId {
        self.module.func_mut(self.func).add_block(name)
    }

    /// Sets the insertion point to the end of `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.cursor = Some(block);
    }

    /// Current insertion block.
    ///
    /// # Panics
    ///
    /// Panics if no insertion point was set.
    pub fn current_block(&self) -> BlockId {
        self.cursor.expect("insertion point set via switch_to")
    }

    /// Type of `v` in the context of the function being built.
    pub fn value_ty(&self, v: Value) -> TyId {
        if let Value::Func(f) = v {
            let fn_ty = self.module.func(f).fn_ty();
            // A function used as an operand behaves like a pointer to it.
            return fn_ty;
        }
        self.module.func(self.func).value_ty(v, &self.module.types)
    }

    fn push(&mut self, inst: Inst) -> InstId {
        let block = self.current_block();
        self.module.func_mut(self.func).append_inst(block, inst)
    }

    fn push_val(&mut self, inst: Inst) -> Value {
        Value::Inst(self.push(inst))
    }

    // ----- constants -------------------------------------------------------

    /// An `i32` constant.
    pub fn const_i32(&self, v: i32) -> Value {
        Value::ConstInt { ty: self.module.types.i32(), bits: v as u32 as u64 }
    }

    /// An `i64` constant.
    pub fn const_i64(&self, v: i64) -> Value {
        Value::ConstInt { ty: self.module.types.i64(), bits: v as u64 }
    }

    /// An integer constant of arbitrary width.
    pub fn const_int(&mut self, bits_width: u32, v: u64) -> Value {
        let ty = self.module.types.int(bits_width);
        Value::ConstInt { ty, bits: truncate_to_width(v, bits_width) }
    }

    /// A `float` constant.
    pub fn const_f32(&self, v: f32) -> Value {
        Value::ConstFloat { ty: self.module.types.f32(), bits: v.to_bits() as u64 }
    }

    /// A `double` constant.
    pub fn const_f64(&self, v: f64) -> Value {
        Value::ConstFloat { ty: self.module.types.f64(), bits: v.to_bits() }
    }

    // ----- arithmetic ------------------------------------------------------

    /// Emits a binary operation; `lhs` and `rhs` must have the same type.
    pub fn binary(&mut self, op: Opcode, lhs: Value, rhs: Value) -> Value {
        debug_assert!(op.is_binary(), "binary() requires a binary opcode");
        let ty = self.value_ty(lhs);
        self.push_val(Inst::new(op, ty, vec![lhs, rhs]))
    }

    /// Integer addition.
    pub fn add(&mut self, l: Value, r: Value) -> Value {
        self.binary(Opcode::Add, l, r)
    }
    /// Integer subtraction.
    pub fn sub(&mut self, l: Value, r: Value) -> Value {
        self.binary(Opcode::Sub, l, r)
    }
    /// Integer multiplication.
    pub fn mul(&mut self, l: Value, r: Value) -> Value {
        self.binary(Opcode::Mul, l, r)
    }
    /// Unsigned division.
    pub fn udiv(&mut self, l: Value, r: Value) -> Value {
        self.binary(Opcode::UDiv, l, r)
    }
    /// Signed division.
    pub fn sdiv(&mut self, l: Value, r: Value) -> Value {
        self.binary(Opcode::SDiv, l, r)
    }
    /// Unsigned remainder.
    pub fn urem(&mut self, l: Value, r: Value) -> Value {
        self.binary(Opcode::URem, l, r)
    }
    /// Signed remainder.
    pub fn srem(&mut self, l: Value, r: Value) -> Value {
        self.binary(Opcode::SRem, l, r)
    }
    /// Floating addition.
    pub fn fadd(&mut self, l: Value, r: Value) -> Value {
        self.binary(Opcode::FAdd, l, r)
    }
    /// Floating subtraction.
    pub fn fsub(&mut self, l: Value, r: Value) -> Value {
        self.binary(Opcode::FSub, l, r)
    }
    /// Floating multiplication.
    pub fn fmul(&mut self, l: Value, r: Value) -> Value {
        self.binary(Opcode::FMul, l, r)
    }
    /// Floating division.
    pub fn fdiv(&mut self, l: Value, r: Value) -> Value {
        self.binary(Opcode::FDiv, l, r)
    }
    /// Left shift.
    pub fn shl(&mut self, l: Value, r: Value) -> Value {
        self.binary(Opcode::Shl, l, r)
    }
    /// Logical right shift.
    pub fn lshr(&mut self, l: Value, r: Value) -> Value {
        self.binary(Opcode::LShr, l, r)
    }
    /// Arithmetic right shift.
    pub fn ashr(&mut self, l: Value, r: Value) -> Value {
        self.binary(Opcode::AShr, l, r)
    }
    /// Bitwise and.
    pub fn and(&mut self, l: Value, r: Value) -> Value {
        self.binary(Opcode::And, l, r)
    }
    /// Bitwise or.
    pub fn or(&mut self, l: Value, r: Value) -> Value {
        self.binary(Opcode::Or, l, r)
    }
    /// Bitwise xor.
    pub fn xor(&mut self, l: Value, r: Value) -> Value {
        self.binary(Opcode::Xor, l, r)
    }

    // ----- comparisons -----------------------------------------------------

    /// Integer comparison producing `i1`.
    pub fn icmp(&mut self, pred: IntPredicate, l: Value, r: Value) -> Value {
        let i1 = self.module.types.i1();
        self.push_val(Inst::with_extra(Opcode::ICmp, i1, vec![l, r], ExtraData::ICmp(pred)))
    }

    /// Floating comparison producing `i1`.
    pub fn fcmp(&mut self, pred: FloatPredicate, l: Value, r: Value) -> Value {
        let i1 = self.module.types.i1();
        self.push_val(Inst::with_extra(Opcode::FCmp, i1, vec![l, r], ExtraData::FCmp(pred)))
    }

    // ----- memory ----------------------------------------------------------

    /// Stack allocation of one `ty`; result is `ty*`.
    pub fn alloca(&mut self, ty: TyId) -> Value {
        let ptr = self.module.types.ptr(ty);
        self.push_val(Inst::with_extra(
            Opcode::Alloca,
            ptr,
            vec![],
            ExtraData::Alloca { allocated: ty },
        ))
    }

    /// Loads from `ptr`, producing the pointee type.
    pub fn load(&mut self, ptr: Value) -> Value {
        let pt = self.value_ty(ptr);
        let pointee = self.module.types.pointee(pt).expect("load from a pointer");
        self.push_val(Inst::new(Opcode::Load, pointee, vec![ptr]))
    }

    /// Stores `value` to `ptr`.
    pub fn store(&mut self, value: Value, ptr: Value) {
        let void = self.module.types.void();
        self.push(Inst::new(Opcode::Store, void, vec![value, ptr]));
    }

    /// `getelementptr` through `source_elem` with the given indices.
    /// The result is a pointer to `result_pointee`.
    pub fn gep(
        &mut self,
        source_elem: TyId,
        ptr: Value,
        indices: Vec<Value>,
        result_pointee: TyId,
    ) -> Value {
        let rt = self.module.types.ptr(result_pointee);
        let mut ops = vec![ptr];
        ops.extend(indices);
        self.push_val(Inst::with_extra(Opcode::Gep, rt, ops, ExtraData::Gep { source_elem }))
    }

    // ----- casts -----------------------------------------------------------

    /// Emits a cast instruction of kind `op` to type `to`.
    pub fn cast(&mut self, op: Opcode, v: Value, to: TyId) -> Value {
        debug_assert!(op.is_cast(), "cast() requires a cast opcode");
        self.push_val(Inst::new(op, to, vec![v]))
    }

    /// Lossless bit reinterpretation.
    pub fn bitcast(&mut self, v: Value, to: TyId) -> Value {
        self.cast(Opcode::BitCast, v, to)
    }
    /// Integer truncation.
    pub fn trunc(&mut self, v: Value, to: TyId) -> Value {
        self.cast(Opcode::Trunc, v, to)
    }
    /// Zero extension.
    pub fn zext(&mut self, v: Value, to: TyId) -> Value {
        self.cast(Opcode::ZExt, v, to)
    }
    /// Sign extension.
    pub fn sext(&mut self, v: Value, to: TyId) -> Value {
        self.cast(Opcode::SExt, v, to)
    }
    /// Float → float narrowing.
    pub fn fptrunc(&mut self, v: Value, to: TyId) -> Value {
        self.cast(Opcode::FPTrunc, v, to)
    }
    /// Float → float widening.
    pub fn fpext(&mut self, v: Value, to: TyId) -> Value {
        self.cast(Opcode::FPExt, v, to)
    }
    /// Signed int → float.
    pub fn sitofp(&mut self, v: Value, to: TyId) -> Value {
        self.cast(Opcode::SIToFP, v, to)
    }
    /// Float → signed int.
    pub fn fptosi(&mut self, v: Value, to: TyId) -> Value {
        self.cast(Opcode::FPToSI, v, to)
    }

    // ----- control flow ----------------------------------------------------

    /// Unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        let void = self.module.types.void();
        self.push(Inst::new(Opcode::Br, void, vec![Value::Block(target)]));
    }

    /// Conditional branch on an `i1` value.
    pub fn condbr(&mut self, cond: Value, then_b: BlockId, else_b: BlockId) {
        let void = self.module.types.void();
        self.push(Inst::new(
            Opcode::CondBr,
            void,
            vec![cond, Value::Block(then_b), Value::Block(else_b)],
        ));
    }

    /// `switch` on an integer value: pairs of (constant, target).
    pub fn switch(&mut self, cond: Value, default: BlockId, cases: Vec<(Value, BlockId)>) {
        let void = self.module.types.void();
        let mut ops = vec![cond, Value::Block(default)];
        for (c, b) in cases {
            ops.push(c);
            ops.push(Value::Block(b));
        }
        self.push(Inst::new(Opcode::Switch, void, ops));
    }

    /// Return; `None` for `ret void`.
    pub fn ret(&mut self, v: Option<Value>) {
        let void = self.module.types.void();
        self.push(Inst::new(Opcode::Ret, void, v.into_iter().collect()));
    }

    /// Marks the current point unreachable.
    pub fn unreachable(&mut self) {
        let void = self.module.types.void();
        self.push(Inst::new(Opcode::Unreachable, void, vec![]));
    }

    // ----- calls & misc ----------------------------------------------------

    /// Direct call to `callee` with `args`; result type is the callee's
    /// return type.
    pub fn call(&mut self, callee: FuncId, args: Vec<Value>) -> Value {
        let fn_ty = self.module.func(callee).fn_ty();
        let ret = self.module.types.fn_ret(fn_ty).expect("callee has function type");
        let mut ops = vec![Value::Func(callee)];
        ops.extend(args);
        self.push_val(Inst::new(Opcode::Call, ret, ops))
    }

    /// `invoke`: call that may unwind to `unwind` (a landing block).
    pub fn invoke(
        &mut self,
        callee: FuncId,
        args: Vec<Value>,
        normal: BlockId,
        unwind: BlockId,
    ) -> Value {
        let fn_ty = self.module.func(callee).fn_ty();
        let ret = self.module.types.fn_ret(fn_ty).expect("callee has function type");
        let mut ops = vec![Value::Func(callee)];
        ops.extend(args);
        ops.push(Value::Block(normal));
        ops.push(Value::Block(unwind));
        self.push_val(Inst::new(Opcode::Invoke, ret, ops))
    }

    /// `select cond, if_true, if_false`.
    pub fn select(&mut self, cond: Value, if_true: Value, if_false: Value) -> Value {
        let ty = self.value_ty(if_true);
        self.push_val(Inst::new(Opcode::Select, ty, vec![cond, if_true, if_false]))
    }

    /// φ-node; `incoming` pairs values with their predecessor blocks.
    pub fn phi(&mut self, ty: TyId, incoming: Vec<(Value, BlockId)>) -> Value {
        let (vals, blocks): (Vec<_>, Vec<_>) = incoming.into_iter().unzip();
        self.push_val(Inst::with_extra(Opcode::Phi, ty, vals, ExtraData::Phi { incoming: blocks }))
    }

    /// `landingpad` with the given clauses; must be the first instruction
    /// of its block. Result type models the `{ i8*, i32 }` EH pair.
    pub fn landingpad(&mut self, clauses: Vec<LandingPadClause>, cleanup: bool) -> Value {
        let i8p = self.module.types.ptr(self.module.types.i8());
        let i32t = self.module.types.i32();
        let pair = self.module.types.struct_(vec![i8p, i32t]);
        self.push_val(Inst::with_extra(
            Opcode::LandingPad,
            pair,
            vec![],
            ExtraData::LandingPad { clauses, cleanup },
        ))
    }

    /// `resume` re-raising the exception value.
    pub fn resume(&mut self, exn: Value) {
        let void = self.module.types.void();
        self.push(Inst::new(Opcode::Resume, void, vec![exn]));
    }

    /// `extractvalue` from an aggregate.
    pub fn extract_value(&mut self, agg: Value, indices: Vec<u32>, result_ty: TyId) -> Value {
        self.push_val(Inst::with_extra(
            Opcode::ExtractValue,
            result_ty,
            vec![agg],
            ExtraData::AggIndices(indices),
        ))
    }

    /// `insertvalue` into an aggregate.
    pub fn insert_value(&mut self, agg: Value, v: Value, indices: Vec<u32>) -> Value {
        let ty = self.value_ty(agg);
        self.push_val(Inst::with_extra(
            Opcode::InsertValue,
            ty,
            vec![agg, v],
            ExtraData::AggIndices(indices),
        ))
    }
}

fn truncate_to_width(v: u64, width: u32) -> u64 {
    if width >= 64 {
        v
    } else {
        v & ((1u64 << width) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Module;

    #[test]
    fn builds_a_small_function() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
        let f = m.create_function("max", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.block("entry");
        let then_b = b.block("then");
        let else_b = b.block("else");
        b.switch_to(entry);
        let c = b.icmp(IntPredicate::Sgt, Value::Param(0), Value::Param(1));
        b.condbr(c, then_b, else_b);
        b.switch_to(then_b);
        b.ret(Some(Value::Param(0)));
        b.switch_to(else_b);
        b.ret(Some(Value::Param(1)));
        let f = m.func(f);
        assert_eq!(f.block_count(), 3);
        assert_eq!(f.inst_count(), 4);
        assert_eq!(f.successors(entry), vec![then_b, else_b]);
    }

    #[test]
    fn alloca_load_store_types() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![]);
        let f = m.create_function("f", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.block("entry");
        b.switch_to(entry);
        let slot = b.alloca(i32t);
        b.store(b.const_i32(42), slot);
        let v = b.load(slot);
        b.ret(Some(v));
        assert_eq!(b.value_ty(v), i32t);
        let pt = b.value_ty(slot);
        assert_eq!(b.module().types.pointee(pt), Some(i32t));
    }

    #[test]
    fn call_result_type_matches_callee() {
        let mut m = Module::new("m");
        let i64t = m.types.i64();
        let callee_ty = m.types.func(i64t, vec![i64t]);
        let callee = m.create_function("id64", callee_ty);
        let void = m.types.void();
        let caller_ty = m.types.func(void, vec![]);
        let caller = m.create_function("caller", caller_ty);
        let mut b = FuncBuilder::new(&mut m, caller);
        let entry = b.block("entry");
        b.switch_to(entry);
        let r = b.call(callee, vec![b.const_i64(7)]);
        assert_eq!(b.value_ty(r), i64t);
        b.ret(None);
    }

    #[test]
    fn const_int_truncates() {
        let mut m = Module::new("m");
        let fn_ty = m.types.func(m.types.void(), vec![]);
        let f = m.create_function("f", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        match b.const_int(8, 0x1ff) {
            Value::ConstInt { bits, .. } => assert_eq!(bits, 0xff),
            _ => panic!(),
        }
    }
}
