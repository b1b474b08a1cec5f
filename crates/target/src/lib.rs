//! # fmsa-target — TTI-style code-size cost models
//!
//! The paper evaluates FMSA's profitability model against the target's
//! TargetTransformInfo code-size costs on two architectures (Intel x86-64
//! and ARM Thumb, §V). This crate is the reproduction's stand-in for TTI:
//! a per-instruction byte-cost table per [`TargetArch`], aggregated by
//! [`CostModel`] into function-body and whole-module sizes.
//!
//! The tables are calibrated to typical encodings (x86-64 variable-length,
//! Thumb-2 mostly 16/32-bit) rather than to an exact assembler: what the
//! evaluation needs is that *relative* sizes behave like a real backend —
//! calls pay per argument, switches pay per case, casts like `bitcast` are
//! free, and Thumb code is roughly half the size of x86-64 code.

#![warn(missing_docs)]

use fmsa_ir::{FuncId, Function, Inst, Module, Opcode};

/// Target architectures evaluated in the paper (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetArch {
    /// Intel x86-64 (variable-length encoding).
    X86_64,
    /// ARM Thumb-2 (16/32-bit encodings, the paper's size-focused target).
    ArmThumb,
}

impl TargetArch {
    /// Both targets, in the paper's presentation order.
    pub const ALL: [TargetArch; 2] = [TargetArch::X86_64, TargetArch::ArmThumb];

    /// Human-readable target name.
    pub fn name(&self) -> &'static str {
        match self {
            TargetArch::X86_64 => "x86-64",
            TargetArch::ArmThumb => "arm-thumb",
        }
    }
}

/// Code-size reduction `before → after`, in percent of `before`.
/// Negative when the module grew.
pub fn reduction_percent(before: u64, after: u64) -> f64 {
    if before == 0 {
        return 0.0;
    }
    (before as f64 - after as f64) / before as f64 * 100.0
}

/// Per-target code-size cost model (the TTI stand-in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    arch: TargetArch,
}

impl CostModel {
    /// Cost model for `arch`.
    pub fn new(arch: TargetArch) -> CostModel {
        CostModel { arch }
    }

    /// The modelled architecture.
    pub fn arch(&self) -> TargetArch {
        self.arch
    }

    /// Fixed cost of emitting a call, excluding argument setup.
    pub fn call_cost(&self) -> u64 {
        match self.arch {
            TargetArch::X86_64 => 5,   // call rel32
            TargetArch::ArmThumb => 4, // bl
        }
    }

    /// Per-argument setup cost at a call site.
    pub fn per_arg_call_cost(&self) -> u64 {
        2 // mov into an argument register, both targets
    }

    /// Per-symbol overhead of keeping a function (alignment padding and
    /// prologue/epilogue skeleton). Counted by [`CostModel::module_size`]
    /// but *not* by [`CostModel::body_size`] — see
    /// `fmsa_core::profitability` for why Δ excludes it.
    pub fn symbol_overhead(&self) -> u64 {
        match self.arch {
            TargetArch::X86_64 => 8,
            TargetArch::ArmThumb => 4,
        }
    }

    /// Code-size cost of one instruction in bytes.
    pub fn inst_cost(&self, inst: &Inst) -> u64 {
        let x86 = matches!(self.arch, TargetArch::X86_64);
        let operands = inst.operands.len() as u64;
        match inst.opcode {
            // Terminators.
            Opcode::Ret => {
                if x86 {
                    1
                } else {
                    2
                }
            }
            Opcode::Br | Opcode::CondBr => 2,
            // [cond, default, (case, block)*]: a compare-and-branch chain
            // or jump table entry per case.
            Opcode::Switch => {
                let cases = operands.saturating_sub(2) / 2;
                (if x86 { 3 } else { 4 }) + cases * 4
            }
            // [callee, args..., normal, unwind]
            Opcode::Invoke => {
                let args = operands.saturating_sub(3);
                self.call_cost() + args * self.per_arg_call_cost()
            }
            Opcode::Resume => 4,
            Opcode::Unreachable => 2,
            // Integer arithmetic.
            Opcode::Add | Opcode::Sub => {
                if x86 {
                    3
                } else {
                    2
                }
            }
            Opcode::Mul => 4,
            Opcode::UDiv | Opcode::SDiv | Opcode::URem | Opcode::SRem => {
                if x86 {
                    6
                } else {
                    4
                }
            }
            // Float arithmetic (SSE / VFP); frem is a libcall on both.
            Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv => 4,
            Opcode::FRem => 8,
            // Bitwise.
            Opcode::Shl | Opcode::LShr | Opcode::AShr | Opcode::And | Opcode::Or | Opcode::Xor => {
                if x86 {
                    3
                } else {
                    2
                }
            }
            // Memory.
            Opcode::Alloca => 4,
            Opcode::Load | Opcode::Store => {
                if x86 {
                    3
                } else {
                    2
                }
            }
            // [ptr, idx...]: lea / add chain, one step per extra index.
            Opcode::Gep => {
                let extra = operands.saturating_sub(2);
                4 + extra * (if x86 { 4 } else { 2 })
            }
            // Casts. Pointer reinterpretations are encoding-free.
            Opcode::BitCast | Opcode::PtrToInt | Opcode::IntToPtr => 0,
            Opcode::Trunc => 2,
            Opcode::ZExt | Opcode::SExt => {
                if x86 {
                    3
                } else {
                    2
                }
            }
            Opcode::FPTrunc
            | Opcode::FPExt
            | Opcode::FPToUI
            | Opcode::FPToSI
            | Opcode::UIToFP
            | Opcode::SIToFP => 4,
            // Other.
            Opcode::ICmp => {
                if x86 {
                    3
                } else {
                    2
                }
            }
            Opcode::FCmp => 4,
            // Phis are resolved by copies already accounted to predecessors.
            Opcode::Phi => 0,
            // [callee, args...]
            Opcode::Call => {
                let args = operands.saturating_sub(1);
                self.call_cost() + args * self.per_arg_call_cost()
            }
            Opcode::Select => {
                if x86 {
                    6
                } else {
                    4
                }
            }
            // Landing pads are EH-table metadata, not instructions.
            Opcode::LandingPad => 0,
            Opcode::ExtractValue | Opcode::InsertValue => {
                if x86 {
                    3
                } else {
                    2
                }
            }
        }
    }

    /// Code-size of one function body (sum of instruction costs; no
    /// per-symbol overhead — see [`CostModel::symbol_overhead`]).
    pub fn body_size(&self, module: &Module, f: FuncId) -> u64 {
        self.func_body_size(module.func(f))
    }

    fn func_body_size(&self, func: &Function) -> u64 {
        func.iter_insts().map(|(_, inst)| self.inst_cost(inst)).sum()
    }

    /// Code-size of the whole module: body sizes plus per-symbol overhead
    /// of every defined function.
    pub fn module_size(&self, module: &Module) -> u64 {
        module
            .func_ids()
            .into_iter()
            .map(|f| {
                let func = module.func(f);
                if func.is_declaration() {
                    0
                } else {
                    self.func_body_size(func) + self.symbol_overhead()
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmsa_ir::{FuncBuilder, Value};

    fn sample_module() -> (Module, FuncId) {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
        let f = m.create_function("f", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let v = b.add(Value::Param(0), Value::Param(1));
        let w = b.mul(v, Value::Param(0));
        let x = b.xor(w, b.const_i32(3));
        let y = b.sub(x, Value::Param(1));
        b.ret(Some(y));
        (m, f)
    }

    #[test]
    fn thumb_code_is_smaller_than_x86() {
        let (m, f) = sample_module();
        let x86 = CostModel::new(TargetArch::X86_64);
        let thumb = CostModel::new(TargetArch::ArmThumb);
        assert!(thumb.body_size(&m, f) < x86.body_size(&m, f));
        assert!(thumb.module_size(&m) < x86.module_size(&m));
    }

    #[test]
    fn module_size_includes_symbol_overhead() {
        let (m, f) = sample_module();
        let cm = CostModel::new(TargetArch::X86_64);
        assert_eq!(cm.module_size(&m), cm.body_size(&m, f) + cm.symbol_overhead());
    }

    #[test]
    fn declarations_are_free() {
        let mut m = Module::new("m");
        let fn_ty = m.types.func(m.types.void(), vec![]);
        m.create_function("decl", fn_ty);
        assert_eq!(CostModel::new(TargetArch::X86_64).module_size(&m), 0);
    }

    #[test]
    fn call_pays_per_argument() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let callee_ty = m.types.func(i32t, vec![i32t, i32t, i32t]);
        let callee = m.create_function("callee", callee_ty);
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let f = m.create_function("f", fn_ty);
        let mut b = FuncBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let p = Value::Param(0);
        let r = b.call(callee, vec![p, p, p]);
        b.ret(Some(r));
        let cm = CostModel::new(TargetArch::X86_64);
        let call_inst_cost = cm.call_cost() + 3 * cm.per_arg_call_cost();
        let ret_cost = 1;
        assert_eq!(cm.body_size(&m, f), call_inst_cost + ret_cost);
    }

    #[test]
    fn reduction_percent_signs() {
        assert!((reduction_percent(200, 150) - 25.0).abs() < 1e-12);
        assert!(reduction_percent(100, 120) < 0.0);
        assert_eq!(reduction_percent(0, 10), 0.0);
    }
}
