//! Textual printer producing an LLVM-flavoured dump of modules and
//! functions. The output is deterministic and accepted back by
//! [`crate::parser`].
//!
//! Everything is written into one buffer: types, operands and names are
//! appended in place, with no intermediate string per token.

use crate::function::{Function, Linkage};
use crate::inst::{ExtraData, LandingPadClause, Opcode};
use crate::module::Module;
use crate::types::{TyId, Type};
use crate::value::{BlockId, InstId, Value};
use std::fmt::Write as _;

/// What the parser makes of `NaN` for `double` (and `half`, which keeps
/// `f64` bits), and for `float`. Any other NaN prints as `0x` and its raw
/// bits, so its sign and payload survive a round trip.
const PARSED_NAN_F64: u64 = 0x7ff8_0000_0000_0000;
const PARSED_NAN_F32: u32 = 0x7fc0_0000;

/// Prints the whole module.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "; module {}", m.name);
    for id in m.func_ids() {
        out.push('\n');
        Writer { m, f: m.func(id), out: &mut out }.function();
    }
    out
}

/// Prints one function.
pub fn print_function(m: &Module, f: &Function) -> String {
    let mut out = String::new();
    Writer { m, f, out: &mut out }.function();
    out
}

/// Appends the text of one function of `m` to `out`.
struct Writer<'a> {
    m: &'a Module,
    f: &'a Function,
    out: &'a mut String,
}

impl Writer<'_> {
    fn function(&mut self) {
        let f = self.f;
        self.out.push_str(if f.is_declaration() { "declare " } else { "define " });
        if f.linkage == Linkage::Internal {
            self.out.push_str("internal ");
        }
        self.ty(f.ret_ty(&self.m.types));
        let _ = write!(self.out, " @{}(", f.name);
        for (k, p) in f.params().iter().enumerate() {
            if k > 0 {
                self.out.push_str(", ");
            }
            self.ty(p.ty);
            let _ = write!(self.out, " %{}", p.name);
        }
        if f.is_declaration() {
            self.out.push_str(")\n");
            return;
        }
        self.out.push_str(") {\n");
        for b in f.block_ids() {
            self.block_name(b);
            self.out.push_str(":\n");
            for &i in &f.block(b).insts {
                self.out.push_str("  ");
                self.inst(i);
                self.out.push('\n');
            }
        }
        self.out.push_str("}\n");
    }

    fn ty(&mut self, ty: TyId) {
        self.m.types.display_into(ty, self.out);
    }

    fn block_name(&mut self, b: BlockId) {
        let name = &self.f.block(b).name;
        if name.is_empty() {
            self.out.push_str("bb");
        } else {
            self.out.push_str(name);
            self.out.push('.');
        }
        let _ = write!(self.out, "{}", b.index());
    }

    /// A value operand with its type prefix.
    fn value(&mut self, v: Value) {
        let f = self.f;
        match v {
            Value::Inst(i) => {
                self.ty(f.inst(i).ty);
                let _ = write!(self.out, " %v{}", i.index());
            }
            Value::Param(p) => {
                let param = &f.params()[p as usize];
                self.ty(param.ty);
                let _ = write!(self.out, " %{}", param.name);
            }
            Value::Block(b) => {
                self.out.push_str("label %");
                self.block_name(b);
            }
            Value::Func(fid) => {
                let _ = write!(self.out, "@{}", self.m.func(fid).name);
            }
            Value::ConstInt { ty, bits } => {
                self.ty(ty);
                let _ = write!(self.out, " {}", bits as i64);
            }
            Value::ConstFloat { ty, bits } => {
                self.ty(ty);
                if matches!(self.m.types.get(ty), Type::Float) {
                    let x = f32::from_bits(bits as u32);
                    if x.is_nan() && x.to_bits() != PARSED_NAN_F32 {
                        let _ = write!(self.out, " 0x{:08x}", x.to_bits());
                    } else {
                        let _ = write!(self.out, " {x:?}");
                    }
                } else {
                    let x = f64::from_bits(bits);
                    if x.is_nan() && bits != PARSED_NAN_F64 {
                        let _ = write!(self.out, " 0x{bits:016x}");
                    } else {
                        let _ = write!(self.out, " {x:?}");
                    }
                }
            }
            Value::ConstNull(ty) => {
                self.ty(ty);
                self.out.push_str(" null");
            }
            Value::Undef(ty) => {
                self.ty(ty);
                self.out.push_str(" undef");
            }
        }
    }

    /// Comma-separated operands.
    fn values(&mut self, vs: &[Value]) {
        for (k, &v) in vs.iter().enumerate() {
            if k > 0 {
                self.out.push_str(", ");
            }
            self.value(v);
        }
    }

    fn inst(&mut self, id: InstId) {
        let f = self.f;
        let inst = f.inst(id);
        let ops = &inst.operands[..];
        if !matches!(self.m.types.get(inst.ty), Type::Void) && inst.opcode != Opcode::Store {
            let _ = write!(self.out, "%v{} = ", id.index());
        }
        match inst.opcode {
            Opcode::ICmp => {
                let p = inst.int_predicate().expect("icmp predicate");
                let _ = write!(self.out, "icmp {} ", p.mnemonic());
                self.values(ops);
            }
            Opcode::FCmp => {
                let p = inst.float_predicate().expect("fcmp predicate");
                let _ = write!(self.out, "fcmp {} ", p.mnemonic());
                self.values(ops);
            }
            Opcode::Alloca => {
                let ExtraData::Alloca { allocated } = &inst.extra else { unreachable!() };
                self.out.push_str("alloca ");
                self.ty(*allocated);
            }
            Opcode::Gep => {
                let ExtraData::Gep { source_elem } = &inst.extra else { unreachable!() };
                self.out.push_str("getelementptr ");
                self.ty(*source_elem);
                self.out.push_str(" -> ");
                self.ty(inst.ty);
                self.out.push_str(", ");
                self.values(ops);
            }
            Opcode::Phi => {
                let ExtraData::Phi { incoming } = &inst.extra else { unreachable!() };
                self.out.push_str("phi ");
                self.ty(inst.ty);
                self.out.push(' ');
                for (k, (&v, &b)) in ops.iter().zip(incoming).enumerate() {
                    if k > 0 {
                        self.out.push_str(", ");
                    }
                    self.out.push_str("[ ");
                    self.value(v);
                    self.out.push_str(", %");
                    self.block_name(b);
                    self.out.push_str(" ]");
                }
            }
            Opcode::LandingPad => {
                let ExtraData::LandingPad { clauses, cleanup } = &inst.extra else {
                    unreachable!()
                };
                self.out.push_str("landingpad ");
                self.ty(inst.ty);
                if *cleanup {
                    self.out.push_str(" cleanup");
                }
                for c in clauses {
                    match c {
                        LandingPadClause::Catch(sym) => {
                            let _ = write!(self.out, " catch @{sym}");
                        }
                        LandingPadClause::Filter(syms) => {
                            let _ = write!(self.out, " filter [{}]", syms.join(", "));
                        }
                    }
                }
            }
            Opcode::ExtractValue | Opcode::InsertValue => {
                let ExtraData::AggIndices(idx) = &inst.extra else { unreachable!() };
                let _ = write!(self.out, "{} ", inst.opcode.mnemonic());
                self.values(ops);
                self.out.push_str(", [");
                for (k, i) in idx.iter().enumerate() {
                    let _ = write!(self.out, "{}{i}", if k > 0 { ", " } else { "" });
                }
                self.out.push(']');
            }
            Opcode::Call => {
                self.out.push_str("call ");
                self.ty(inst.ty);
                self.out.push(' ');
                self.value(ops[0]);
                self.out.push('(');
                self.values(&ops[1..]);
                self.out.push(')');
            }
            Opcode::Invoke => {
                let n = ops.len();
                self.out.push_str("invoke ");
                self.ty(inst.ty);
                self.out.push(' ');
                self.value(ops[0]);
                self.out.push('(');
                self.values(&ops[1..n - 2]);
                self.out.push_str(") to ");
                self.value(ops[n - 2]);
                self.out.push_str(" unwind ");
                self.value(ops[n - 1]);
            }
            Opcode::Ret if ops.is_empty() => self.out.push_str("ret void"),
            op => {
                let _ = write!(self.out, "{} ", op.mnemonic());
                self.values(ops);
                if op.is_cast() {
                    self.out.push_str(" to ");
                    self.ty(inst.ty);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FuncBuilder;
    use crate::inst::IntPredicate;
    use crate::module::Module;

    #[test]
    fn prints_a_function() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
        let f = m.create_function("max", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.block("entry");
        let t = b.block("then");
        let e = b.block("else");
        b.switch_to(entry);
        let c = b.icmp(IntPredicate::Sgt, Value::Param(0), Value::Param(1));
        b.condbr(c, t, e);
        b.switch_to(t);
        b.ret(Some(Value::Param(0)));
        b.switch_to(e);
        b.ret(Some(Value::Param(1)));
        let text = print_module(&m);
        assert!(text.contains("define internal i32 @max(i32 %a0, i32 %a1)"), "{text}");
        assert!(text.contains("icmp sgt i32 %a0, i32 %a1"), "{text}");
        assert!(text.contains("condbr"), "{text}");
        assert!(text.contains("ret i32 %a0"), "{text}");
    }

    #[test]
    fn prints_declarations() {
        let mut m = Module::new("m");
        let fn_ty = m.types.func(m.types.void(), vec![m.types.f64()]);
        m.create_function("ext", fn_ty);
        let text = print_module(&m);
        assert!(text.contains("declare internal void @ext(double %a0)"), "{text}");
    }

    #[test]
    fn prints_memory_ops() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![]);
        let f = m.create_function("f", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let entry = b.block("entry");
        b.switch_to(entry);
        let slot = b.alloca(i32t);
        b.store(b.const_i32(7), slot);
        let v = b.load(slot);
        b.ret(Some(v));
        let text = print_module(&m);
        assert!(text.contains("alloca i32"), "{text}");
        assert!(text.contains("store i32 7, i32* %v0"), "{text}");
        assert!(text.contains("load i32* %v0"), "{text}");
    }
}
