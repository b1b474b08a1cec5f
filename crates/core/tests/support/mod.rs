//! Test support: the pairwise §III-D relation the exact keys of
//! `fmsa_core::equivalence` replaced, kept as the oracle they are checked
//! against. It compares two entries directly — opcode, lossless-bitcast
//! result and operand types, payloads, switch cases, callees, landing
//! pads — exactly as the pass did before alignment moved to keys.

use fmsa_core::linearize::Entry;
use fmsa_ir::{ExtraData, Function, Inst, Module, Opcode, Type, Value};

/// The pairwise relation over entries of `f1` and `f2`.
#[derive(Debug, Clone, Copy)]
pub struct PairwiseEquiv<'a> {
    module: &'a Module,
    f1: &'a Function,
    f2: &'a Function,
}

impl<'a> PairwiseEquiv<'a> {
    /// The relation between entries of `f1` and entries of `f2`.
    pub fn new(module: &'a Module, f1: &'a Function, f2: &'a Function) -> PairwiseEquiv<'a> {
        PairwiseEquiv { module, f1, f2 }
    }

    /// The §III-D equivalence over linearized entries.
    pub fn entries_equivalent(&self, e1: &Entry, e2: &Entry) -> bool {
        match (e1, e2) {
            (Entry::Label(b1), Entry::Label(b2)) => self.labels_equivalent(*b1, *b2),
            (Entry::Inst(i1), Entry::Inst(i2)) => {
                self.insts_equivalent(self.f1.inst(*i1), self.f2.inst(*i2))
            }
            _ => false,
        }
    }

    /// "Labels of normal basic blocks are ignored during code equivalence
    /// evaluation, but we cannot do the same for landing blocks."
    fn labels_equivalent(&self, b1: fmsa_ir::BlockId, b2: fmsa_ir::BlockId) -> bool {
        let l1 = self.f1.is_landing_block(b1);
        let l2 = self.f2.is_landing_block(b2);
        match (l1, l2) {
            (false, false) => true,
            (true, true) => {
                let p1 = self.f1.inst(self.f1.block(b1).insts[0]);
                let p2 = self.f2.inst(self.f2.block(b2).insts[0]);
                self.landingpads_identical(p1, p2)
            }
            _ => false,
        }
    }

    /// "Landing-pad instructions are equivalent if they have exactly the
    /// same type and also encode identical lists of exception and cleanup
    /// handlers."
    fn landingpads_identical(&self, p1: &Inst, p2: &Inst) -> bool {
        p1.opcode == Opcode::LandingPad
            && p2.opcode == Opcode::LandingPad
            && p1.ty == p2.ty
            && p1.extra == p2.extra
    }

    /// Instruction equivalence (§III-D).
    fn insts_equivalent(&self, i1: &Inst, i2: &Inst) -> bool {
        let ts = &self.module.types;
        // (1) Opcode equivalence. We use exact opcode equality; the IR has
        // no instruction flags, so there are no distinct-but-equivalent
        // opcodes to unify.
        if i1.opcode != i2.opcode {
            return false;
        }
        // φ-nodes are assumed demoted before merging (§III); never merge
        // any that remain.
        if i1.opcode == Opcode::Phi {
            return false;
        }
        // (2) Equivalent result types.
        if !ts.can_lossless_bitcast(i1.ty, i2.ty) {
            return false;
        }
        // (3) Pairwise operands with equivalent types.
        if i1.operands.len() != i2.operands.len() {
            return false;
        }
        for (&o1, &o2) in i1.operands.iter().zip(&i2.operands) {
            let label1 = matches!(o1, Value::Block(_));
            let label2 = matches!(o2, Value::Block(_));
            if label1 != label2 {
                return false;
            }
            if label1 {
                continue; // label operands are resolved by codegen
            }
            let (t1, t2) = (self.op_ty1(o1), self.op_ty2(o2));
            match (t1, t2) {
                (Some(a), Some(b)) if ts.can_lossless_bitcast(a, b) => {}
                _ => return false,
            }
        }
        // Opcode-specific payloads.
        match (&i1.extra, &i2.extra) {
            (ExtraData::None, ExtraData::None) => {}
            (ExtraData::ICmp(a), ExtraData::ICmp(b)) if a == b => {}
            (ExtraData::FCmp(a), ExtraData::FCmp(b)) if a == b => {}
            (ExtraData::Alloca { allocated: a }, ExtraData::Alloca { allocated: b }) => {
                // Merged allocas must reserve the same amount of memory and
                // alignment; identical size suffices since loads/stores go
                // through bitcast-equivalent pointers.
                if ts.byte_size(*a) != ts.byte_size(*b) || ts.align_of(*a) != ts.align_of(*b) {
                    return false;
                }
            }
            (ExtraData::Gep { source_elem: a }, ExtraData::Gep { source_elem: b }) => {
                if a != b || !self.gep_struct_indices_identical(i1, i2, *a) {
                    return false;
                }
            }
            (ExtraData::LandingPad { .. }, ExtraData::LandingPad { .. }) => {
                if !self.landingpads_identical(i1, i2) {
                    return false;
                }
            }
            (ExtraData::AggIndices(a), ExtraData::AggIndices(b)) => {
                if a != b || i1.ty != i2.ty {
                    return false;
                }
            }
            _ => return false,
        }
        // Switch case values are immediate constants in the encoding; they
        // cannot be selected at runtime, so matched switches must agree on
        // every case constant (targets may differ — codegen selects labels
        // through divergent control flow).
        if i1.opcode == Opcode::Switch {
            for (k, (&o1, &o2)) in i1.operands.iter().zip(&i2.operands).enumerate() {
                let is_case_const = k >= 2 && k % 2 == 0;
                if is_case_const && o1 != o2 {
                    return false;
                }
            }
        }
        // Calls: "type equivalence means that both instructions have
        // identical function types" — and (see module docs) we further
        // require the same callee to stay within direct calls.
        if matches!(i1.opcode, Opcode::Call | Opcode::Invoke) {
            if i1.operands[0] != i2.operands[0] {
                return false;
            }
            // Invoke: unwind landing blocks must carry identical pads.
            if i1.opcode == Opcode::Invoke {
                let u1 = i1.operands[i1.operands.len() - 1].as_block();
                let u2 = i2.operands[i2.operands.len() - 1].as_block();
                match (u1, u2) {
                    (Some(u1), Some(u2)) => {
                        if !self.labels_equivalent(u1, u2) {
                            return false;
                        }
                    }
                    _ => return false,
                }
            }
        }
        true
    }

    /// Struct-field GEP indices must be identical constants (they select
    /// compile-time offsets); array/pointer indices may differ (codegen
    /// selects them at runtime).
    fn gep_struct_indices_identical(&self, i1: &Inst, i2: &Inst, source: fmsa_ir::TyId) -> bool {
        let ts = &self.module.types;
        let mut cur = source;
        // operands[1] indexes the source element itself (array semantics);
        // subsequent operands walk into the type.
        for (k, (&o1, &o2)) in i1.operands[1..].iter().zip(&i2.operands[1..]).enumerate() {
            if k > 0 {
                match ts.get(cur) {
                    Type::Struct { fields, .. } => {
                        if o1 != o2 {
                            return false;
                        }
                        let Value::ConstInt { bits, .. } = o1 else { return false };
                        match fields.get(bits as usize) {
                            Some(&f) => cur = f,
                            None => return false,
                        }
                        continue;
                    }
                    Type::Array { elem, .. } => {
                        cur = *elem;
                    }
                    _ => return false,
                }
            }
        }
        true
    }

    fn op_ty1(&self, v: Value) -> Option<fmsa_ir::TyId> {
        self.operand_ty(self.f1, v)
    }

    fn op_ty2(&self, v: Value) -> Option<fmsa_ir::TyId> {
        self.operand_ty(self.f2, v)
    }

    fn operand_ty(&self, f: &Function, v: Value) -> Option<fmsa_ir::TyId> {
        match v {
            Value::Func(g) => Some(self.module.func(g).fn_ty()),
            Value::Block(_) => None,
            _ => Some(f.value_ty(v, &self.module.types)),
        }
    }
}
