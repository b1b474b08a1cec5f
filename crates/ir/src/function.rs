//! Functions and basic blocks.
//!
//! A [`Function`] owns two arenas (blocks, instructions) plus the block
//! layout order. Instructions and blocks are tombstoned on removal so ids
//! remain stable — important because [`crate::Value`]s embed them.

use crate::inst::{Inst, Opcode};
use crate::types::{TyId, TypeStore};
use crate::value::{BlockId, InstId, Value};

/// Linkage of a function, controlling whether the optimizer may assume it
/// sees every call site (paper §IV: external linkage prevents deleting the
/// original function after merging).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Linkage {
    /// Visible only inside this module; all call sites are known.
    #[default]
    Internal,
    /// Potentially referenced from outside the module.
    External,
}

/// A formal parameter of a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Parameter type.
    pub ty: TyId,
    /// Optional name used by the printer.
    pub name: String,
}

/// A basic block: an ordered list of instructions ending in a terminator.
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// Label used by the printer.
    pub name: String,
    /// Instruction ids in execution order.
    pub insts: Vec<InstId>,
}

/// A function definition (or declaration, when it has no blocks).
#[derive(Debug, Clone)]
pub struct Function {
    /// Symbol name, unique within the module.
    pub name: String,
    /// Linkage; see [`Linkage`].
    pub linkage: Linkage,
    /// Whether the function's address escapes (indirect calls possible).
    /// Address-taken functions cannot be deleted after merging (§III-A).
    pub address_taken: bool,
    fn_ty: TyId,
    params: Vec<Param>,
    blocks: Vec<Option<Block>>,
    insts: Vec<Option<Inst>>,
    layout: Vec<BlockId>,
}

impl Function {
    /// Creates an empty function with signature `fn_ty` (must be a
    /// `Type::Func` in `types`). Parameters are named `a0, a1, ...`.
    ///
    /// # Panics
    ///
    /// Panics if `fn_ty` is not a function type.
    pub fn new(name: impl Into<String>, fn_ty: TyId, types: &TypeStore) -> Function {
        let params = types
            .fn_params(fn_ty)
            .expect("Function::new requires a function type")
            .iter()
            .enumerate()
            .map(|(i, &ty)| Param { ty, name: format!("a{i}") })
            .collect();
        Function {
            name: name.into(),
            linkage: Linkage::Internal,
            address_taken: false,
            fn_ty,
            params,
            blocks: Vec::new(),
            insts: Vec::new(),
            layout: Vec::new(),
        }
    }

    /// The function's signature type.
    pub fn fn_ty(&self) -> TyId {
        self.fn_ty
    }

    /// Return type of the function.
    pub fn ret_ty(&self, types: &TypeStore) -> TyId {
        types.fn_ret(self.fn_ty).expect("fn_ty is a function type")
    }

    /// Formal parameters.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// Mutable access to the formal parameters (for renaming; changing a
    /// parameter's type without updating `fn_ty` leaves the function
    /// inconsistent).
    pub fn params_mut(&mut self) -> &mut [Param] {
        &mut self.params
    }

    /// Whether this is a declaration (no body).
    pub fn is_declaration(&self) -> bool {
        self.layout.is_empty()
    }

    /// Appends a new empty block to the layout.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push(Some(Block { name: name.into(), insts: Vec::new() }));
        self.layout.push(id);
        id
    }

    /// The entry block.
    ///
    /// # Panics
    ///
    /// Panics on declarations.
    pub fn entry(&self) -> BlockId {
        *self.layout.first().expect("function has a body")
    }

    /// Block ids in layout order (entry first).
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.layout.iter().copied()
    }

    /// Number of live blocks.
    pub fn block_count(&self) -> usize {
        self.layout.len()
    }

    /// Shared access to a block.
    ///
    /// # Panics
    ///
    /// Panics if the block was removed.
    pub fn block(&self, id: BlockId) -> &Block {
        self.blocks[id.index()].as_ref().expect("live block")
    }

    /// Mutable access to a block.
    ///
    /// # Panics
    ///
    /// Panics if the block was removed.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        self.blocks[id.index()].as_mut().expect("live block")
    }

    /// Whether `id` refers to a block that has not been removed.
    pub fn is_live_block(&self, id: BlockId) -> bool {
        self.blocks.get(id.index()).is_some_and(Option::is_some)
    }

    /// Appends `inst` to `block` and returns its id.
    pub fn append_inst(&mut self, block: BlockId, mut inst: Inst) -> InstId {
        inst.parent = block;
        let id = InstId::from_index(self.insts.len());
        self.insts.push(Some(inst));
        self.block_mut(block).insts.push(id);
        id
    }

    /// Inserts `inst` into `block` at position `pos` (0 = first).
    ///
    /// # Panics
    ///
    /// Panics if `pos > block.insts.len()`.
    pub fn insert_inst(&mut self, block: BlockId, pos: usize, mut inst: Inst) -> InstId {
        inst.parent = block;
        let id = InstId::from_index(self.insts.len());
        self.insts.push(Some(inst));
        self.block_mut(block).insts.insert(pos, id);
        id
    }

    /// Inserts `inst` immediately before `before` in the same block.
    ///
    /// # Panics
    ///
    /// Panics if `before` is not in a live block.
    pub fn insert_before(&mut self, before: InstId, inst: Inst) -> InstId {
        let block = self.inst(before).parent;
        let pos = self
            .block(block)
            .insts
            .iter()
            .position(|&i| i == before)
            .expect("instruction present in its parent block");
        self.insert_inst(block, pos, inst)
    }

    /// Shared access to an instruction.
    ///
    /// # Panics
    ///
    /// Panics if the instruction was removed.
    pub fn inst(&self, id: InstId) -> &Inst {
        self.insts[id.index()].as_ref().expect("live instruction")
    }

    /// Mutable access to an instruction.
    ///
    /// # Panics
    ///
    /// Panics if the instruction was removed.
    pub fn inst_mut(&mut self, id: InstId) -> &mut Inst {
        self.insts[id.index()].as_mut().expect("live instruction")
    }

    /// Whether `id` refers to an instruction that has not been removed.
    pub fn is_live_inst(&self, id: InstId) -> bool {
        self.insts.get(id.index()).is_some_and(Option::is_some)
    }

    /// Removes `inst` from its block and tombstones it.
    pub fn remove_inst(&mut self, id: InstId) {
        if let Some(inst) = self.insts[id.index()].take() {
            if let Some(Some(block)) = self.blocks.get_mut(inst.parent.index()) {
                block.insts.retain(|&i| i != id);
            }
        }
    }

    /// Removes `block` (and all its instructions) from the function.
    pub fn remove_block(&mut self, id: BlockId) {
        if let Some(block) = self.blocks[id.index()].take() {
            for inst in block.insts {
                self.insts[inst.index()] = None;
            }
            self.layout.retain(|&b| b != id);
        }
    }

    /// Deletes the whole body, turning the function into a declaration.
    pub fn clear_body(&mut self) {
        self.blocks.clear();
        self.insts.clear();
        self.layout.clear();
    }

    /// Ids of live instructions, in layout/block order.
    pub fn inst_ids(&self) -> Vec<InstId> {
        self.iter_insts().map(|(id, _)| id).collect()
    }

    /// Live instructions with their ids, in [`Function::inst_ids`] order,
    /// without allocating: the walk for per-function and per-pair hot
    /// paths (fingerprints, body sizes, call-site scans).
    pub fn iter_insts(&self) -> impl Iterator<Item = (InstId, &Inst)> + '_ {
        self.layout
            .iter()
            .flat_map(move |&b| self.block(b).insts.iter().map(move |&i| (i, self.inst(i))))
    }

    /// Number of live instructions (the paper's "function size").
    pub fn inst_count(&self) -> usize {
        self.layout.iter().map(|&b| self.block(b).insts.len()).sum()
    }

    /// The terminator of `block`, if the block is non-empty and ends in one.
    pub fn terminator(&self, block: BlockId) -> Option<InstId> {
        let last = *self.block(block).insts.last()?;
        self.inst(last).is_terminator().then_some(last)
    }

    /// Successor blocks of `block`.
    pub fn successors(&self, block: BlockId) -> Vec<BlockId> {
        match self.terminator(block) {
            Some(t) => self.inst(t).successors(),
            None => Vec::new(),
        }
    }

    /// Replaces every operand equal to `from` with `to`, everywhere in the
    /// body. Also rewrites φ incoming blocks when `from`/`to` are labels.
    pub fn replace_all_uses(&mut self, from: Value, to: Value) {
        for slot in self.insts.iter_mut().flatten() {
            for op in &mut slot.operands {
                if *op == from {
                    *op = to;
                }
            }
            if let (Value::Block(fb), Value::Block(tb)) = (from, to) {
                if let crate::inst::ExtraData::Phi { incoming } = &mut slot.extra {
                    for b in incoming.iter_mut() {
                        if *b == fb {
                            *b = tb;
                        }
                    }
                }
            }
        }
    }

    /// Type of a value in the context of this function.
    ///
    /// # Panics
    ///
    /// Panics if the value is a parameter index out of range or an
    /// instruction id that was removed.
    pub fn value_ty(&self, v: Value, types: &TypeStore) -> TyId {
        match v {
            Value::Inst(i) => self.inst(i).ty,
            Value::Param(p) => self.params[p as usize].ty,
            Value::Block(_) => types.label(),
            Value::Func(_) => {
                // The caller should consult the module for the precise
                // signature; as an operand a function behaves like a pointer.
                types.label()
            }
            Value::ConstInt { ty, .. }
            | Value::ConstFloat { ty, .. }
            | Value::ConstNull(ty)
            | Value::Undef(ty) => ty,
        }
    }

    /// Whether `block` is a landing block (starts with `landingpad`).
    pub fn is_landing_block(&self, block: BlockId) -> bool {
        self.block(block).insts.first().is_some_and(|&i| self.inst(i).opcode == Opcode::LandingPad)
    }

    /// Moves `block` to the end of the layout order (used by codegen to
    /// keep diamond shapes readable; semantics are unaffected).
    pub fn move_block_to_end(&mut self, block: BlockId) {
        self.layout.retain(|&b| b != block);
        self.layout.push(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{ExtraData, Inst, Opcode};
    use crate::types::TypeStore;

    fn sample() -> (TypeStore, Function) {
        let mut ts = TypeStore::new();
        let fn_ty = ts.func(ts.i32(), vec![ts.i32(), ts.i32()]);
        let f = Function::new("f", fn_ty, &ts);
        (ts, f)
    }

    #[test]
    fn new_function_has_named_params() {
        let (ts, f) = sample();
        assert_eq!(f.params().len(), 2);
        assert_eq!(f.params()[0].name, "a0");
        assert_eq!(f.ret_ty(&ts), ts.i32());
        assert!(f.is_declaration());
    }

    #[test]
    fn append_and_count() {
        let (ts, mut f) = sample();
        let b = f.add_block("entry");
        assert!(!f.is_declaration());
        let add = f.append_inst(
            b,
            Inst::new(Opcode::Add, ts.i32(), vec![Value::Param(0), Value::Param(1)]),
        );
        f.append_inst(b, Inst::new(Opcode::Ret, ts.void(), vec![Value::Inst(add)]));
        assert_eq!(f.inst_count(), 2);
        assert_eq!(f.block_count(), 1);
        assert_eq!(f.inst(add).parent, b);
        assert_eq!(f.terminator(b).map(|t| f.inst(t).opcode), Some(Opcode::Ret));
    }

    #[test]
    fn insert_before_preserves_order() {
        let (ts, mut f) = sample();
        let b = f.add_block("entry");
        let ret = f.append_inst(b, Inst::new(Opcode::Ret, ts.void(), vec![Value::Param(0)]));
        let add = f.insert_before(
            ret,
            Inst::new(Opcode::Add, ts.i32(), vec![Value::Param(0), Value::Param(1)]),
        );
        assert_eq!(f.block(b).insts, vec![add, ret]);
    }

    #[test]
    fn remove_inst_tombstones() {
        let (ts, mut f) = sample();
        let b = f.add_block("entry");
        let add = f.append_inst(
            b,
            Inst::new(Opcode::Add, ts.i32(), vec![Value::Param(0), Value::Param(1)]),
        );
        f.append_inst(b, Inst::new(Opcode::Ret, ts.void(), vec![Value::Param(0)]));
        f.remove_inst(add);
        assert!(!f.is_live_inst(add));
        assert_eq!(f.inst_count(), 1);
    }

    #[test]
    fn iter_insts_walks_blocks_in_layout_order() {
        let (ts, mut f) = sample();
        let b0 = f.add_block("b0");
        let b1 = f.add_block("b1");
        let b2 = f.add_block("b2");
        let add = |f: &mut Function, b| {
            f.append_inst(
                b,
                Inst::new(Opcode::Add, ts.i32(), vec![Value::Param(0), Value::Param(1)]),
            )
        };
        // Arena order differs from layout order: b2's first instruction
        // comes first in the arena, and b1 moves behind b2.
        let x = add(&mut f, b2);
        let mid = add(&mut f, b0);
        let y = add(&mut f, b0);
        let br0 = f.append_inst(b0, Inst::new(Opcode::Br, ts.void(), vec![Value::Block(b2)]));
        let z = add(&mut f, b1);
        let ret = f.append_inst(b1, Inst::new(Opcode::Ret, ts.void(), vec![Value::Param(0)]));
        let br2 = f.append_inst(b2, Inst::new(Opcode::Br, ts.void(), vec![Value::Block(b1)]));
        f.move_block_to_end(b1);
        let walk = |f: &Function| {
            assert!(f.iter_insts().all(|(i, inst)| std::ptr::eq(inst, f.inst(i))));
            let ids: Vec<InstId> = f.iter_insts().map(|(i, _)| i).collect();
            assert_eq!(ids, f.inst_ids());
            ids
        };
        assert_eq!(walk(&f), vec![mid, y, br0, x, br2, z, ret]);
        f.remove_inst(mid);
        assert_eq!(walk(&f), vec![y, br0, x, br2, z, ret]);
    }

    #[test]
    fn replace_all_uses_rewrites_operands_and_phis() {
        let (ts, mut f) = sample();
        let b0 = f.add_block("b0");
        let b1 = f.add_block("b1");
        let phi = f.append_inst(
            b1,
            Inst::with_extra(
                Opcode::Phi,
                ts.i32(),
                vec![Value::Param(0)],
                ExtraData::Phi { incoming: vec![b0] },
            ),
        );
        f.append_inst(b1, Inst::new(Opcode::Ret, ts.void(), vec![Value::Inst(phi)]));
        let b2 = f.add_block("b2");
        f.replace_all_uses(Value::Block(b0), Value::Block(b2));
        match &f.inst(phi).extra {
            ExtraData::Phi { incoming } => assert_eq!(incoming, &vec![b2]),
            _ => panic!("phi extra"),
        }
        f.replace_all_uses(Value::Param(0), Value::ConstInt { ty: ts.i32(), bits: 5 });
        assert_eq!(f.inst(phi).operands[0], Value::ConstInt { ty: ts.i32(), bits: 5 });
    }

    #[test]
    fn remove_block_drops_instructions() {
        let (ts, mut f) = sample();
        let b0 = f.add_block("b0");
        let b1 = f.add_block("b1");
        let i = f.append_inst(b1, Inst::new(Opcode::Ret, ts.void(), vec![]));
        f.append_inst(b0, Inst::new(Opcode::Br, ts.void(), vec![Value::Block(b1)]));
        f.remove_block(b1);
        assert!(!f.is_live_block(b1));
        assert!(!f.is_live_inst(i));
        assert_eq!(f.block_count(), 1);
    }

    #[test]
    fn successors_via_terminator() {
        let (ts, mut f) = sample();
        let b0 = f.add_block("b0");
        let b1 = f.add_block("b1");
        let b2 = f.add_block("b2");
        f.append_inst(
            b0,
            Inst::new(
                Opcode::CondBr,
                ts.void(),
                vec![Value::Param(0), Value::Block(b1), Value::Block(b2)],
            ),
        );
        assert_eq!(f.successors(b0), vec![b1, b2]);
        assert!(f.successors(b1).is_empty());
    }
}
