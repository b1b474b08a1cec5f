//! IR well-formedness verifier.
//!
//! The verifier is the main defence against code-generation bugs in the
//! merger: every merged function is verified before it is accepted. Checks
//! are structural and type-level; they deliberately mirror the subset of
//! LLVM's verifier that matters for this codebase.

use crate::function::Function;
use crate::inst::{ExtraData, Inst, Opcode};
use crate::module::Module;
use crate::types::Type;
use crate::value::{BlockId, FuncId, InstId, Value};
use std::error::Error;
use std::fmt;

/// A verification failure, pointing at the offending function and
/// instruction where possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Offending function name.
    pub func: String,
    /// Offending block, if applicable.
    pub block: Option<BlockId>,
    /// Offending instruction, if applicable.
    pub inst: Option<InstId>,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify error in @{}", self.func)?;
        if let Some(b) = self.block {
            write!(f, " {b}")?;
        }
        if let Some(i) = self.inst {
            write!(f, " {i}")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl Error for VerifyError {}

/// Verifies every live function of `module`. Returns all violations found
/// (empty means the module is well-formed).
pub fn verify_module(module: &Module) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    for id in module.func_ids() {
        errs.extend(verify_function(module, id));
    }
    errs
}

/// Verifies a single function. See [`verify_module`].
pub fn verify_function(module: &Module, id: FuncId) -> Vec<VerifyError> {
    let f = module.func(id);
    let mut v = Verifier { module, f, errs: Vec::new() };
    v.run();
    v.errs
}

struct Verifier<'a> {
    module: &'a Module,
    f: &'a Function,
    errs: Vec<VerifyError>,
}

impl<'a> Verifier<'a> {
    fn err(&mut self, block: Option<BlockId>, inst: Option<InstId>, message: String) {
        self.errs.push(VerifyError { func: self.f.name.clone(), block, inst, message });
    }

    fn run(&mut self) {
        // Signature types must come from this module's store before
        // anything else: the per-instruction checks read the return and
        // parameter types, and a foreign id (one interned in another
        // module's store) would panic the store lookup.
        let ts = &self.module.types;
        let mut sig_tys = vec![self.f.fn_ty()];
        sig_tys.extend(self.f.params().iter().map(|p| p.ty));
        let mut sig_ok = true;
        for ty in sig_tys {
            if !ts.contains(ty) {
                self.err(
                    None,
                    None,
                    format!("signature type id {ty} is not in this module's store"),
                );
                sig_ok = false;
            }
        }
        if !sig_ok || self.f.is_declaration() {
            return;
        }
        let entry = self.f.entry();
        let preds = crate::cfg::Predecessors::compute(self.f);
        if preds.count(entry) != 0 {
            self.err(Some(entry), None, "entry block has predecessors".into());
        }
        for b in self.f.block_ids() {
            self.check_block(b);
        }
    }

    fn check_block(&mut self, b: BlockId) {
        let insts = self.f.block(b).insts.clone();
        if insts.is_empty() {
            self.err(Some(b), None, "empty block (missing terminator)".into());
            return;
        }
        for (pos, &iid) in insts.iter().enumerate() {
            if !self.f.is_live_inst(iid) {
                self.err(Some(b), Some(iid), "block references removed instruction".into());
                continue;
            }
            let inst = self.f.inst(iid);
            if inst.parent != b {
                self.err(Some(b), Some(iid), "instruction parent link is stale".into());
            }
            let is_last = pos + 1 == insts.len();
            if inst.is_terminator() && !is_last {
                self.err(Some(b), Some(iid), "terminator in the middle of a block".into());
            }
            if is_last && !inst.is_terminator() {
                self.err(Some(b), Some(iid), "block does not end in a terminator".into());
            }
            if inst.opcode == Opcode::LandingPad && pos != 0 {
                self.err(
                    Some(b),
                    Some(iid),
                    "landingpad must be the first instruction of its block".into(),
                );
            }
            if !self.check_tyids_in_range(b, iid, inst) {
                // Out-of-range type ids (copied from another module's
                // store) would make the typing checks index past the store.
                continue;
            }
            self.check_operands(b, iid, inst);
            self.check_typing(b, iid, inst);
        }
    }

    /// Every [`crate::TyId`] an instruction carries must come from this
    /// module's store; ids from a foreign store are reported
    /// instead of panicking deeper in the typing checks. Returns whether
    /// all ids were in range.
    fn check_tyids_in_range(&mut self, b: BlockId, iid: InstId, inst: &Inst) -> bool {
        let ts = &self.module.types;
        let mut tys = vec![inst.ty];
        for op in &inst.operands {
            match *op {
                Value::ConstInt { ty, .. }
                | Value::ConstFloat { ty, .. }
                | Value::ConstNull(ty)
                | Value::Undef(ty) => tys.push(ty),
                _ => {}
            }
        }
        match &inst.extra {
            ExtraData::Alloca { allocated } => tys.push(*allocated),
            ExtraData::Gep { source_elem } => tys.push(*source_elem),
            _ => {}
        }
        let mut ok = true;
        for ty in tys {
            if !ts.contains(ty) {
                self.err(Some(b), Some(iid), format!("type id {ty} is not in this module's store"));
                ok = false;
            }
        }
        ok
    }

    fn check_operands(&mut self, b: BlockId, iid: InstId, inst: &Inst) {
        for op in &inst.operands {
            match *op {
                Value::Inst(i) if !self.f.is_live_inst(i) => {
                    self.err(Some(b), Some(iid), format!("operand {i} was removed"));
                }
                Value::Param(p) if p as usize >= self.f.params().len() => {
                    self.err(Some(b), Some(iid), format!("parameter index {p} out of range"));
                }
                Value::Block(t) if !self.f.is_live_block(t) => {
                    self.err(Some(b), Some(iid), format!("branch target {t} was removed"));
                }
                Value::Func(fid) if !self.module.is_live(fid) => {
                    self.err(Some(b), Some(iid), format!("function operand {fid} was removed"));
                }
                _ => {}
            }
        }
    }

    fn value_ty(&self, v: Value) -> Option<crate::types::TyId> {
        match v {
            // A dangling function reference (removed, or a cross-module id
            // that was never remapped) must degrade to "unknown type":
            // `check_operands` already reported it, and indexing the
            // function table here would panic.
            Value::Func(fid) if !self.module.is_live(fid) => None,
            Value::Func(fid) => Some(self.module.func(fid).fn_ty()),
            Value::Inst(i) if !self.f.is_live_inst(i) => None,
            Value::Param(p) if p as usize >= self.f.params().len() => None,
            _ => Some(self.f.value_ty(v, &self.module.types)),
        }
    }

    fn check_typing(&mut self, b: BlockId, iid: InstId, inst: &Inst) {
        let ts = &self.module.types;
        let op = inst.opcode;
        let nops = inst.operands.len();
        let tys: Vec<_> = inst.operands.iter().map(|&v| self.value_ty(v)).collect();
        let fail = |this: &mut Self, msg: String| this.err(Some(b), Some(iid), msg);

        match op {
            _ if op.is_binary() => {
                if nops != 2 {
                    fail(self, format!("{} expects 2 operands, got {nops}", op.mnemonic()));
                } else if let (Some(a), Some(bb)) = (tys[0], tys[1]) {
                    if a != bb || a != inst.ty {
                        fail(
                            self,
                            format!(
                                "{}: operand/result types disagree ({}, {}) -> {}",
                                op.mnemonic(),
                                ts.display(a),
                                ts.display(bb),
                                ts.display(inst.ty)
                            ),
                        );
                    }
                    let is_float_op = matches!(
                        op,
                        Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv | Opcode::FRem
                    );
                    if is_float_op != ts.is_float(a) {
                        fail(self, format!("{}: wrong operand domain", op.mnemonic()));
                    }
                }
            }
            Opcode::ICmp => {
                if !matches!(inst.extra, ExtraData::ICmp(_)) {
                    fail(self, "icmp without predicate".into());
                }
                if ts.int_width(inst.ty) != Some(1) {
                    fail(self, "icmp must produce i1".into());
                }
                if let (Some(a), Some(c)) =
                    (tys.first().copied().flatten(), tys.get(1).copied().flatten())
                {
                    if a != c || !(ts.is_int(a) || ts.is_ptr(a)) {
                        fail(self, "icmp operands must be matching int/ptr types".into());
                    }
                }
            }
            Opcode::FCmp => {
                if !matches!(inst.extra, ExtraData::FCmp(_)) {
                    fail(self, "fcmp without predicate".into());
                }
                if let (Some(a), Some(c)) =
                    (tys.first().copied().flatten(), tys.get(1).copied().flatten())
                {
                    if a != c || !ts.is_float(a) {
                        fail(self, "fcmp operands must be matching float types".into());
                    }
                }
            }
            Opcode::Alloca => match &inst.extra {
                ExtraData::Alloca { allocated } => {
                    if ts.pointee(inst.ty) != Some(*allocated) {
                        fail(self, "alloca result must be pointer to allocated type".into());
                    }
                }
                _ => fail(self, "alloca without allocated type".into()),
            },
            Opcode::Load => {
                if nops != 1 {
                    fail(self, "load expects 1 operand".into());
                } else if let Some(pt) = tys[0] {
                    if ts.pointee(pt) != Some(inst.ty) {
                        fail(self, "load result type must match pointee".into());
                    }
                }
            }
            Opcode::Store => {
                if nops != 2 {
                    fail(self, "store expects 2 operands".into());
                } else if let (Some(vt), Some(pt)) = (tys[0], tys[1]) {
                    if ts.pointee(pt) != Some(vt) {
                        fail(self, "store value type must match pointee".into());
                    }
                }
            }
            Opcode::Gep => {
                if !matches!(inst.extra, ExtraData::Gep { .. }) {
                    fail(self, "gep without source element type".into());
                }
                if nops < 2 {
                    fail(self, "gep expects a pointer and at least one index".into());
                } else if let Some(pt) = tys[0] {
                    if !ts.is_ptr(pt) {
                        fail(self, "gep base must be a pointer".into());
                    }
                }
                if !ts.is_ptr(inst.ty) {
                    fail(self, "gep result must be a pointer".into());
                }
            }
            Opcode::BitCast => {
                if let Some(Some(from)) = tys.first() {
                    if !ts.can_lossless_bitcast(*from, inst.ty) {
                        fail(
                            self,
                            format!(
                                "bitcast between non-bitcastable types {} -> {}",
                                ts.display(*from),
                                ts.display(inst.ty)
                            ),
                        );
                    }
                }
            }
            Opcode::Trunc | Opcode::ZExt | Opcode::SExt => {
                if let Some(Some(from)) = tys.first() {
                    let (fw, tw) = (ts.int_width(*from), ts.int_width(inst.ty));
                    match (fw, tw) {
                        (Some(fw), Some(tw)) => {
                            let ok = if op == Opcode::Trunc { fw > tw } else { fw < tw };
                            if !ok {
                                fail(
                                    self,
                                    format!("{}: invalid widths {fw} -> {tw}", op.mnemonic()),
                                );
                            }
                        }
                        _ => fail(self, format!("{} requires integer types", op.mnemonic())),
                    }
                }
            }
            Opcode::Ret => {
                let expect = self.f.ret_ty(ts);
                let is_void = matches!(ts.get(expect), Type::Void);
                if is_void && nops != 0 {
                    fail(self, "ret in void function must not carry a value".into());
                }
                if !is_void {
                    if nops != 1 {
                        fail(self, "ret must carry exactly one value".into());
                    } else if let Some(rt) = tys[0] {
                        if rt != expect {
                            fail(
                                self,
                                format!(
                                    "ret type {} does not match signature {}",
                                    ts.display(rt),
                                    ts.display(expect)
                                ),
                            );
                        }
                    }
                }
            }
            Opcode::Br if (nops != 1 || inst.operands[0].as_block().is_none()) => {
                fail(self, "br expects a single label operand".into());
            }
            Opcode::CondBr => {
                let ok = nops == 3
                    && tys[0].map(|t| ts.int_width(t) == Some(1)).unwrap_or(false)
                    && inst.operands[1].as_block().is_some()
                    && inst.operands[2].as_block().is_some();
                if !ok {
                    fail(self, "condbr expects (i1, label, label)".into());
                }
            }
            Opcode::Switch => {
                if nops < 2 || !nops.is_multiple_of(2) {
                    fail(self, "switch expects cond, default, then (const, label) pairs".into());
                } else {
                    if inst.operands[1].as_block().is_none() {
                        fail(self, "switch default must be a label".into());
                    }
                    for pair in inst.operands[2..].chunks(2) {
                        let c_ok = matches!(pair[0], Value::ConstInt { .. });
                        let b_ok = pair.get(1).and_then(|v| v.as_block()).is_some();
                        if !c_ok || !b_ok {
                            fail(self, "switch case must be (const int, label)".into());
                            break;
                        }
                    }
                }
            }
            Opcode::Call | Opcode::Invoke => {
                let arg_end = if op == Opcode::Invoke { nops.saturating_sub(2) } else { nops };
                if nops == 0 {
                    fail(self, "call without callee".into());
                    return;
                }
                if op == Opcode::Invoke {
                    let blocks_ok = nops >= 3
                        && inst.operands[nops - 2].as_block().is_some()
                        && inst.operands[nops - 1].as_block().is_some();
                    if !blocks_ok {
                        fail(self, "invoke must end with normal and unwind labels".into());
                        return;
                    }
                    if let Some(ub) = inst.operands[nops - 1].as_block() {
                        if self.f.is_live_block(ub) && !self.f.is_landing_block(ub) {
                            fail(self, "invoke unwind target must be a landing block".into());
                        }
                    }
                }
                if let Value::Func(callee) = inst.operands[0] {
                    if self.module.is_live(callee) {
                        let fn_ty = self.module.func(callee).fn_ty();
                        let params = ts.fn_params(fn_ty).map(<[_]>::to_vec).unwrap_or_default();
                        let ret = ts.fn_ret(fn_ty).expect("function type");
                        if ret != inst.ty {
                            fail(self, "call result type must match callee return type".into());
                        }
                        let args = &inst.operands[1..arg_end];
                        // A varargs callee takes extra arguments after
                        // its fixed params.
                        let varargs = ts.is_varargs(fn_ty);
                        if args.len() < params.len() || (!varargs && args.len() > params.len()) {
                            fail(
                                self,
                                format!(
                                    "call passes {} args, callee expects {}{}",
                                    args.len(),
                                    params.len(),
                                    if varargs { " or more" } else { "" }
                                ),
                            );
                        } else {
                            for (k, (&a, &p)) in args.iter().zip(params.iter()).enumerate() {
                                if let Some(at) = self.value_ty(a) {
                                    if at != p {
                                        fail(
                                            self,
                                            format!(
                                                "call arg {k} has type {}, expected {}",
                                                ts.display(at),
                                                ts.display(p)
                                            ),
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
            Opcode::Select => {
                let ok = nops == 3
                    && tys[0].map(|t| ts.int_width(t) == Some(1)).unwrap_or(false)
                    && tys[1].is_some()
                    && tys[1] == tys[2]
                    && tys[1] == Some(inst.ty);
                if !ok {
                    fail(self, "select expects (i1, T, T) -> T".into());
                }
            }
            Opcode::Phi => match &inst.extra {
                ExtraData::Phi { incoming } => {
                    if incoming.len() != nops {
                        fail(self, "phi incoming blocks do not match operand count".into());
                    }
                    for &ib in incoming {
                        if !self.f.is_live_block(ib) {
                            fail(self, format!("phi incoming block {ib} was removed"));
                        }
                    }
                    for (k, ty) in tys.iter().enumerate() {
                        if let Some(t) = ty {
                            if *t != inst.ty {
                                fail(self, format!("phi operand {k} type mismatch"));
                            }
                        }
                    }
                }
                _ => fail(self, "phi without incoming block list".into()),
            },
            Opcode::LandingPad if !matches!(inst.extra, ExtraData::LandingPad { .. }) => {
                fail(self, "landingpad without clause data".into());
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::IntPredicate;
    use crate::module::Module;

    fn ok_module() -> Module {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
        let f = m.create_function("max", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.block("entry");
        let t = b.block("t");
        let e = b.block("e");
        b.switch_to(entry);
        let c = b.icmp(IntPredicate::Sgt, Value::Param(0), Value::Param(1));
        b.condbr(c, t, e);
        b.switch_to(t);
        b.ret(Some(Value::Param(0)));
        b.switch_to(e);
        b.ret(Some(Value::Param(1)));
        m
    }

    #[test]
    fn valid_module_passes() {
        let m = ok_module();
        assert!(verify_module(&m).is_empty(), "{:?}", verify_module(&m));
    }

    #[test]
    fn missing_terminator_detected() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![]);
        let f = m.create_function("f", fn_ty);
        let b = m.func_mut(f).add_block("entry");
        m.func_mut(f).append_inst(
            b,
            Inst::new(
                Opcode::Add,
                i32t,
                vec![Value::ConstInt { ty: i32t, bits: 1 }, Value::ConstInt { ty: i32t, bits: 2 }],
            ),
        );
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("terminator")), "{errs:?}");
    }

    #[test]
    fn ret_type_mismatch_detected() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let i64t = m.types.i64();
        let fn_ty = m.types.func(i32t, vec![]);
        let f = m.create_function("f", fn_ty);
        let b = m.func_mut(f).add_block("entry");
        let void = m.types.void();
        m.func_mut(f).append_inst(
            b,
            Inst::new(Opcode::Ret, void, vec![Value::ConstInt { ty: i64t, bits: 0 }]),
        );
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("ret type")), "{errs:?}");
    }

    #[test]
    fn binary_type_mismatch_detected() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let i64t = m.types.i64();
        let fn_ty = m.types.func(i32t, vec![]);
        let f = m.create_function("f", fn_ty);
        let b = m.func_mut(f).add_block("entry");
        let bad = m.func_mut(f).append_inst(
            b,
            Inst::new(
                Opcode::Add,
                i32t,
                vec![Value::ConstInt { ty: i32t, bits: 1 }, Value::ConstInt { ty: i64t, bits: 2 }],
            ),
        );
        let void = m.types.void();
        m.func_mut(f).append_inst(b, Inst::new(Opcode::Ret, void, vec![Value::Inst(bad)]));
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("disagree")), "{errs:?}");
    }

    #[test]
    fn call_arity_mismatch_detected() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let callee_ty = m.types.func(i32t, vec![i32t]);
        let callee = m.create_function("callee", callee_ty);
        let void = m.types.void();
        let fn_ty = m.types.func(void, vec![]);
        let f = m.create_function("f", fn_ty);
        let b = m.func_mut(f).add_block("entry");
        m.func_mut(f).append_inst(b, Inst::new(Opcode::Call, i32t, vec![Value::Func(callee)]));
        m.func_mut(f).append_inst(b, Inst::new(Opcode::Ret, void, vec![]));
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("args")), "{errs:?}");
    }

    #[test]
    fn entry_with_predecessors_detected() {
        let mut m = Module::new("m");
        let void = m.types.void();
        let fn_ty = m.types.func(void, vec![]);
        let f = m.create_function("f", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.block("entry");
        b.switch_to(entry);
        b.br(entry); // self-loop into entry
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("entry block")), "{errs:?}");
    }

    #[test]
    fn dangling_function_reference_reported_not_panicking() {
        // A call whose callee id points past the function table (e.g. a
        // FuncId copied from another module without remapping)
        // must produce a verify error, not an index panic.
        let mut m = Module::new("m");
        let void = m.types.void();
        let fn_ty = m.types.func(void, vec![]);
        let f = m.create_function("f", fn_ty);
        let b = m.func_mut(f).add_block("entry");
        let bogus = FuncId::from_index(999);
        m.func_mut(f).append_inst(b, Inst::new(Opcode::Call, void, vec![Value::Func(bogus)]));
        m.func_mut(f).append_inst(b, Inst::new(Opcode::Ret, void, vec![]));
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("was removed")), "{errs:?}");
    }

    /// A [`TyId`] that only a bigger, foreign store knows: clone the
    /// module's store, intern `depth` pointer wrappers into the clone,
    /// and return the last id — out of range for `m`.
    fn alien_ptr_ty(m: &Module, depth: usize) -> crate::types::TyId {
        let mut foreign = m.types.clone();
        let mut alien = foreign.i64();
        for _ in 0..depth {
            alien = foreign.ptr(alien);
        }
        assert!(foreign.contains(alien));
        assert!(!m.types.contains(alien), "an id past the donor store must be foreign to it");
        alien
    }

    #[test]
    fn foreign_type_id_reported_not_panicking() {
        // A TyId from a bigger, foreign store is out of range here; the
        // verifier must report it instead of indexing past the store.
        let mut m = Module::new("m");
        let void = m.types.void();
        let fn_ty = m.types.func(void, vec![]);
        let f = m.create_function("f", fn_ty);
        let b = m.func_mut(f).add_block("entry");
        let alien = alien_ptr_ty(&m, 2);
        m.func_mut(f).append_inst(b, Inst::new(Opcode::Ret, void, vec![Value::Undef(alien)]));
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("not in this module's store")), "{errs:?}");
    }

    #[test]
    fn foreign_signature_type_reported_not_panicking() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let f = m.create_function("f", fn_ty);
        let b = m.func_mut(f).add_block("entry");
        let void = m.types.void();
        m.func_mut(f).append_inst(b, Inst::new(Opcode::Ret, void, vec![Value::Param(0)]));
        // Point a parameter type at an id only a bigger store knows.
        m.func_mut(f).params_mut()[0].ty = alien_ptr_ty(&m, 1);
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("signature type id")), "{errs:?}");
    }

    #[test]
    fn phi_removed_incoming_block_detected() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let f = m.create_function("f", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.block("entry");
        let dead = b.block("dead");
        let join = b.block("join");
        b.switch_to(entry);
        b.br(join);
        b.switch_to(dead);
        b.br(join);
        b.switch_to(join);
        let phi = b.phi(i32t, vec![(Value::Param(0), entry), (Value::Param(0), dead)]);
        b.ret(Some(phi));
        m.func_mut(f).remove_block(dead);
        // The phi still names `dead` as an incoming block.
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("incoming block")), "{errs:?}");
    }

    #[test]
    fn select_shape_checked() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![]);
        let f = m.create_function("f", fn_ty);
        let b = m.func_mut(f).add_block("entry");
        let c32 = Value::ConstInt { ty: i32t, bits: 1 };
        let sel =
            m.func_mut(f).append_inst(b, Inst::new(Opcode::Select, i32t, vec![c32, c32, c32]));
        let void = m.types.void();
        m.func_mut(f).append_inst(b, Inst::new(Opcode::Ret, void, vec![Value::Inst(sel)]));
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("select")), "{errs:?}");
    }
}
