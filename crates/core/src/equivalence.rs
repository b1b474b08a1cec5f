//! The equivalence relation over linearized entries (paper §III-D).
//!
//! Two instructions are equivalent if (1) their opcodes are equivalent,
//! (2) their result types are equivalent, and (3) they have pairwise
//! operands with equivalent types, where types are equivalent when they can
//! be bitcast losslessly. Labels of normal blocks are always equivalent to
//! each other; landing-block labels require identical landing-pad
//! instructions.
//!
//! Deviations from the paper, both conservative (they only *reject* merges
//! the paper might accept):
//!
//! * matched calls/invokes must target the *same* callee operand —
//!   selecting between two callees at runtime would need indirect calls,
//!   which the interpreter substrate does not model;
//! * `getelementptr` pairs must agree on the source element type and on
//!   every struct-field index (field offsets are compile-time constants
//!   and cannot be selected at runtime).
//!
//! # Exact keys
//!
//! The relation is defined through a canonical **key** per entry:
//! `entries_equivalent(e1, e2)` holds exactly when both entries have a key
//! and the keys are equal. This works because every ingredient is itself
//! an equivalence: lossless bitcasting (`TypeStore::can_lossless_bitcast`)
//! partitions types into all pointers, non-aggregate first-class
//! non-pointers by bit size, and every other type on its own, and all
//! other conditions are equalities of per-entry data. A key is a word
//! sequence holding, in order, the opcode, the bitcast class of the
//! result type and of each operand (label operands marked as such), and
//! the opcode's payload: the landing pad's type and clauses for landing
//! labels and pads, alloca byte size and alignment, the GEP source type
//! with the struct indices of its walk, extract/insert indices with the
//! exact result type, switch case constants, the raw call/invoke callee
//! operand and the key of an invoke's unwind label. Entries the relation
//! never matches, not even with themselves — φ-nodes (assumed demoted
//! before merging, §III), GEPs whose walk fails, invokes whose unwind
//! operand is not a block — have no key.
//!
//! Alignment then compares keys, not entries: [`KeyInterner`] maps each
//! key to a dense `u32` once per function (cached next to the
//! linearization, see [`crate::linearize::LinearizationCache`]), gives
//! every keyless entry a fresh id no other entry shares, and the kernel
//! compares `u32`s.

use crate::linearize::Entry;
use fmsa_ir::{
    BlockId, ExtraData, FuncId, Function, Inst, LandingPadClause, Module, Opcode, TyId, Type,
    TypeStore, Value,
};
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// Equivalence context: the module plus the two functions being aligned.
#[derive(Debug, Clone, Copy)]
pub struct EquivCtx<'a> {
    /// The module owning both functions.
    pub module: &'a Module,
    /// First function.
    pub f1: &'a Function,
    /// Second function.
    pub f2: &'a Function,
}

impl<'a> EquivCtx<'a> {
    /// Builds a context for aligning `f1` against `f2`.
    pub fn new(module: &'a Module, f1: &'a Function, f2: &'a Function) -> EquivCtx<'a> {
        EquivCtx { module, f1, f2 }
    }

    /// The §III-D equivalence over linearized entries: `e1` (of `f1`) and
    /// `e2` (of `f2`) both have a key, and the keys are equal.
    pub fn entries_equivalent(&self, e1: &Entry, e2: &Entry) -> bool {
        let (mut k1, mut k2) = (Vec::new(), Vec::new());
        entry_key(self.module, self.f1, *e1, &mut k1)
            && entry_key(self.module, self.f2, *e2, &mut k2)
            && k1 == k2
    }
}

// Leading words of a key: what kind of entry it describes.
const NORMAL_LABEL: u64 = 0;
const LANDING_LABEL: u64 = 1;
const INST: u64 = 2;

// Bitcast-class words, one per result and operand type.
const LABEL_OPERAND: u64 = 0;
const CLASS_PTR: u64 = 1 << 62;
const CLASS_BITS: u64 = 2 << 62;
const CLASS_TYPE: u64 = 3 << 62;

/// The class of `ty` under `TypeStore::can_lossless_bitcast`: all
/// pointers; non-aggregate first-class non-pointers by bit size; any other
/// type (aggregates, `void`, `label`, function types) by its own id.
fn bitcast_class(types: &TypeStore, ty: TyId) -> u64 {
    match types.get(ty) {
        Type::Ptr { .. } => CLASS_PTR,
        Type::Int(_) | Type::Half | Type::Float | Type::Double => {
            CLASS_BITS | types.bit_size(ty).expect("scalar types have a bit size")
        }
        _ => CLASS_TYPE | ty.index() as u64,
    }
}

/// Appends the key of `entry`, an entry of `f`, to `out` and returns
/// `true`; returns `false`, leaving `out` unchanged, when the entry has no
/// key (the relation never holds for it). See the module docs for what a
/// key holds.
pub(crate) fn entry_key(module: &Module, f: &Function, entry: Entry, out: &mut Vec<u64>) -> bool {
    let mark = out.len();
    let keyed = match entry {
        Entry::Label(b) => label_key(f, b, out),
        Entry::Inst(i) => inst_key(module, f, f.inst(i), out),
    };
    if !keyed {
        out.truncate(mark);
    }
    keyed
}

/// "Labels of normal basic blocks are ignored during code equivalence
/// evaluation, but we cannot do the same for landing blocks."
fn label_key(f: &Function, b: BlockId, out: &mut Vec<u64>) -> bool {
    if !f.is_landing_block(b) {
        out.push(NORMAL_LABEL);
        return true;
    }
    out.push(LANDING_LABEL);
    push_landing_pad(out, f.inst(f.block(b).insts[0]));
    true
}

/// "Landing-pad instructions are equivalent if they have exactly the same
/// type and also encode identical lists of exception and cleanup
/// handlers": the exact type and the whole payload.
fn push_landing_pad(out: &mut Vec<u64>, pad: &Inst) {
    out.push(pad.ty.index() as u64);
    push_payload(out, &pad.extra);
}

/// Instruction equivalence (§III-D) as a key.
fn inst_key(module: &Module, f: &Function, inst: &Inst, out: &mut Vec<u64>) -> bool {
    let ts = &module.types;
    // φ-nodes are assumed demoted before merging (§III); never merge any
    // that remain.
    if inst.opcode == Opcode::Phi {
        return false;
    }
    // (1) Opcode equivalence is exact opcode equality: the IR has no
    // instruction flags, so there are no distinct-but-equivalent opcodes.
    // (2) Result type class. (3) Operand type classes; label operands are
    // resolved by codegen, so only their kind counts.
    out.extend([INST, inst.opcode as u64, bitcast_class(ts, inst.ty)]);
    out.push(inst.operands.len() as u64);
    for &o in &inst.operands {
        out.push(match o {
            Value::Block(_) => LABEL_OPERAND,
            Value::Func(g) => bitcast_class(ts, module.func(g).fn_ty()),
            _ => bitcast_class(ts, f.value_ty(o, ts)),
        });
    }
    // Opcode-specific payloads.
    match &inst.extra {
        ExtraData::None => out.push(0),
        ExtraData::ICmp(p) => out.extend([1, *p as u64]),
        ExtraData::FCmp(p) => out.extend([2, *p as u64]),
        ExtraData::Alloca { allocated } => {
            // Merged allocas must reserve the same amount of memory and
            // alignment; identical size suffices since loads/stores go
            // through bitcast-equivalent pointers.
            out.push(3);
            push_opt(out, ts.byte_size(*allocated));
            push_opt(out, ts.align_of(*allocated));
        }
        ExtraData::Gep { source_elem } => {
            out.extend([4, source_elem.index() as u64]);
            if !push_gep_struct_indices(ts, inst, *source_elem, out) {
                return false;
            }
        }
        ExtraData::LandingPad { .. } => {
            if inst.opcode != Opcode::LandingPad {
                return false;
            }
            out.push(5);
            push_landing_pad(out, inst);
        }
        ExtraData::AggIndices(indices) => {
            out.extend([6, inst.ty.index() as u64, indices.len() as u64]);
            out.extend(indices.iter().map(|&k| k as u64));
        }
        ExtraData::Phi { .. } => return false,
    }
    // Switch case values are immediate constants in the encoding; they
    // cannot be selected at runtime, so matched switches must agree on
    // every case constant (targets may differ — codegen selects labels
    // through divergent control flow).
    if inst.opcode == Opcode::Switch {
        for (k, &o) in inst.operands.iter().enumerate() {
            if k >= 2 && k % 2 == 0 {
                push_value(out, o);
            }
        }
    }
    // Calls: "type equivalence means that both instructions have identical
    // function types" — and (see module docs) the same callee operand.
    if matches!(inst.opcode, Opcode::Call | Opcode::Invoke) {
        let Some(&callee) = inst.operands.first() else { return false };
        push_value(out, callee);
        // Invoke: unwind landing blocks must carry identical pads.
        if inst.opcode == Opcode::Invoke {
            let Some(unwind) = inst.operands.last().and_then(|v| v.as_block()) else {
                return false;
            };
            return label_key(f, unwind, out);
        }
    }
    true
}

/// Struct-field GEP indices must be identical constants (they select
/// compile-time offsets); array/pointer indices may differ (codegen
/// selects them at runtime). Appends the struct indices of the walk;
/// `false` when the walk fails, for any partner.
fn push_gep_struct_indices(ts: &TypeStore, inst: &Inst, source: TyId, out: &mut Vec<u64>) -> bool {
    let count_at = out.len();
    out.push(0);
    let mut cur = source;
    // operands[1] indexes the source element itself (array semantics);
    // subsequent operands walk into the type.
    for &o in inst.operands.iter().skip(2) {
        match ts.get(cur) {
            Type::Struct { fields, .. } => {
                let Value::ConstInt { bits, .. } = o else { return false };
                let Some(&field) = fields.get(bits as usize) else { return false };
                push_value(out, o);
                out[count_at] += 1;
                cur = field;
            }
            Type::Array { elem, .. } => cur = *elem,
            _ => return false,
        }
    }
    true
}

fn push_opt(out: &mut Vec<u64>, v: Option<u64>) {
    match v {
        Some(v) => out.extend([1, v]),
        None => out.push(0),
    }
}

/// An operand compared raw (`Value` equality).
fn push_value(out: &mut Vec<u64>, v: Value) {
    match v {
        Value::Inst(i) => out.extend([0, i.index() as u64]),
        Value::Param(p) => out.extend([1, p as u64]),
        Value::Block(b) => out.extend([2, b.index() as u64]),
        Value::Func(g) => out.extend([3, g.index() as u64]),
        Value::ConstInt { ty, bits } => out.extend([4, ty.index() as u64, bits]),
        Value::ConstFloat { ty, bits } => out.extend([5, ty.index() as u64, bits]),
        Value::ConstNull(ty) => out.extend([6, ty.index() as u64]),
        Value::Undef(ty) => out.extend([7, ty.index() as u64]),
    }
}

/// A payload compared raw (`ExtraData` equality).
fn push_payload(out: &mut Vec<u64>, extra: &ExtraData) {
    match extra {
        ExtraData::None => out.push(0),
        ExtraData::ICmp(p) => out.extend([1, *p as u64]),
        ExtraData::FCmp(p) => out.extend([2, *p as u64]),
        ExtraData::Alloca { allocated } => out.extend([3, allocated.index() as u64]),
        ExtraData::Gep { source_elem } => out.extend([4, source_elem.index() as u64]),
        ExtraData::Phi { incoming } => {
            out.extend([5, incoming.len() as u64]);
            out.extend(incoming.iter().map(|b| b.index() as u64));
        }
        ExtraData::LandingPad { clauses, cleanup } => {
            out.extend([6, *cleanup as u64, clauses.len() as u64]);
            for clause in clauses {
                match clause {
                    LandingPadClause::Catch(name) => {
                        out.push(0);
                        push_str(out, name);
                    }
                    LandingPadClause::Filter(names) => {
                        out.extend([1, names.len() as u64]);
                        for name in names {
                            push_str(out, name);
                        }
                    }
                }
            }
        }
        ExtraData::AggIndices(indices) => {
            out.extend([7, indices.len() as u64]);
            out.extend(indices.iter().map(|&k| k as u64));
        }
    }
}

fn push_str(out: &mut Vec<u64>, s: &str) {
    out.push(s.len() as u64);
    out.extend(s.as_bytes().chunks(8).map(|c| {
        let mut word = [0u8; 8];
        word[..c.len()].copy_from_slice(c);
        u64::from_le_bytes(word)
    }));
}

/// The id bit that marks a fresh id: the id of an entry without a key,
/// equal to no other id.
const FRESH: u32 = 1 << 31;

/// Interns entry keys to dense `u32` ids for one module.
///
/// Equal keys get equal ids and different keys different ids, so comparing
/// ids is the §III-D relation; an entry without a key gets a fresh id
/// (high bit set) that no other entry shares. Ids are only comparable
/// between sequences from the same interner. Safe to share across the
/// workers that pre-fill a [`crate::linearize::LinearizationCache`]: each
/// function's keys are built without the lock and interned under it in
/// one batch. Which id a key gets depends on interning order, which may
/// vary between runs; alignments only compare ids for equality, so they
/// do not.
#[derive(Debug, Default)]
pub struct KeyInterner {
    /// Every update leaves the map and counter valid (an id is handed out
    /// only after its key is stored), so a guard poisoned by a panicking
    /// worker is recovered rather than propagated.
    inner: Mutex<Interned>,
}

#[derive(Debug, Default)]
struct Interned {
    ids: HashMap<Box<[u64]>, u32>,
    fresh: u32,
}

impl KeyInterner {
    /// An empty interner.
    pub fn new() -> KeyInterner {
        KeyInterner::default()
    }

    /// The key ids of `seq`, a linearization of `f`.
    pub fn keys(&self, module: &Module, f: FuncId, seq: &[Entry]) -> Vec<u32> {
        let func = module.func(f);
        let mut words = Vec::with_capacity(seq.len() * 8);
        let spans: Vec<Option<(usize, usize)>> = seq
            .iter()
            .map(|&e| {
                let start = words.len();
                let keyed = entry_key(module, func, e, &mut words);
                keyed.then_some((start, words.len()))
            })
            .collect();
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        spans
            .into_iter()
            .map(|span| match span {
                Some((start, end)) => inner.intern(&words[start..end]),
                None => inner.fresh(),
            })
            .collect()
    }

    /// The id of an already interned key, if any.
    pub(crate) fn lookup(&self, key: &[u64]) -> Option<u32> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).ids.get(key).copied()
    }

    /// Whether `id` is a fresh id, handed to an entry without a key.
    pub fn is_fresh(id: u32) -> bool {
        id & FRESH != 0
    }
}

impl Interned {
    fn intern(&mut self, key: &[u64]) -> u32 {
        if let Some(&id) = self.ids.get(key) {
            return id;
        }
        let id = self.ids.len() as u32;
        assert!(id < FRESH, "more than 2^31 distinct entry keys");
        self.ids.insert(key.into(), id);
        id
    }

    fn fresh(&mut self) -> u32 {
        let id = self.fresh;
        assert!(id < FRESH, "more than 2^31 fresh entry ids");
        self.fresh += 1;
        FRESH | id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmsa_ir::{FuncBuilder, IntPredicate, LandingPadClause, Module, Value};

    /// Builds two functions with a few instructions each and returns the
    /// module for ad-hoc equivalence probing.
    fn two_fns(
        build: impl Fn(&mut FuncBuilder<'_>, bool),
    ) -> (Module, fmsa_ir::FuncId, fmsa_ir::FuncId) {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let f64t = m.types.f64();
        let fn_ty = m.types.func(i32t, vec![i32t, f64t]);
        let f1 = m.create_function("f1", fn_ty);
        let f2 = m.create_function("f2", fn_ty);
        {
            let mut b = FuncBuilder::new(&mut m, f1);
            let e = b.block("entry");
            b.switch_to(e);
            build(&mut b, true);
        }
        {
            let mut b = FuncBuilder::new(&mut m, f2);
            let e = b.block("entry");
            b.switch_to(e);
            build(&mut b, false);
        }
        (m, f1, f2)
    }

    fn first_insts(m: &Module, f1: fmsa_ir::FuncId, f2: fmsa_ir::FuncId) -> (Entry, Entry) {
        let e1 = Entry::Inst(m.func(f1).inst_ids()[0]);
        let e2 = Entry::Inst(m.func(f2).inst_ids()[0]);
        (e1, e2)
    }

    #[test]
    fn identical_adds_are_equivalent() {
        let (m, f1, f2) = two_fns(|b, _| {
            let v = b.add(Value::Param(0), b.const_i32(1));
            b.ret(Some(v));
        });
        let ctx = EquivCtx::new(&m, m.func(f1), m.func(f2));
        let (e1, e2) = first_insts(&m, f1, f2);
        assert!(ctx.entries_equivalent(&e1, &e2));
    }

    #[test]
    fn different_opcodes_not_equivalent() {
        let (m, f1, f2) = two_fns(|b, first| {
            let v = if first {
                b.add(Value::Param(0), b.const_i32(1))
            } else {
                b.sub(Value::Param(0), b.const_i32(1))
            };
            b.ret(Some(v));
        });
        let ctx = EquivCtx::new(&m, m.func(f1), m.func(f2));
        let (e1, e2) = first_insts(&m, f1, f2);
        assert!(!ctx.entries_equivalent(&e1, &e2));
    }

    #[test]
    fn bitcastable_types_are_equivalent() {
        // i32 add vs i32 add whose operands come from a float bitcast —
        // same types; then check i32 vs f32 stores via alloca of same size.
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let f32t = m.types.f32();
        let fn1 = m.types.func(m.types.void(), vec![i32t]);
        let fn2 = m.types.func(m.types.void(), vec![f32t]);
        let f1 = m.create_function("f1", fn1);
        let f2 = m.create_function("f2", fn2);
        {
            let mut b = FuncBuilder::new(&mut m, f1);
            let e = b.block("entry");
            b.switch_to(e);
            let s = b.alloca(i32t);
            b.store(Value::Param(0), s);
            b.ret(None);
        }
        {
            let mut b = FuncBuilder::new(&mut m, f2);
            let e = b.block("entry");
            b.switch_to(e);
            let s = b.alloca(f32t);
            b.store(Value::Param(0), s);
            b.ret(None);
        }
        let ctx = EquivCtx::new(&m, m.func(f1), m.func(f2));
        let i1 = m.func(f1).inst_ids();
        let i2 = m.func(f2).inst_ids();
        // alloca i32 vs alloca f32: same size/align -> equivalent.
        assert!(ctx.entries_equivalent(&Entry::Inst(i1[0]), &Entry::Inst(i2[0])));
        // store i32 vs store f32: operand types bitcastable -> equivalent.
        assert!(ctx.entries_equivalent(&Entry::Inst(i1[1]), &Entry::Inst(i2[1])));
        // ret void vs ret void.
        assert!(ctx.entries_equivalent(&Entry::Inst(i1[2]), &Entry::Inst(i2[2])));
    }

    #[test]
    fn different_widths_not_equivalent() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let f64t = m.types.f64();
        let fn1 = m.types.func(m.types.void(), vec![i32t]);
        let fn2 = m.types.func(m.types.void(), vec![f64t]);
        let f1 = m.create_function("f1", fn1);
        let f2 = m.create_function("f2", fn2);
        {
            let mut b = FuncBuilder::new(&mut m, f1);
            let e = b.block("entry");
            b.switch_to(e);
            let s = b.alloca(i32t);
            b.store(Value::Param(0), s);
            b.ret(None);
        }
        {
            let mut b = FuncBuilder::new(&mut m, f2);
            let e = b.block("entry");
            b.switch_to(e);
            let s = b.alloca(f64t);
            b.store(Value::Param(0), s);
            b.ret(None);
        }
        let ctx = EquivCtx::new(&m, m.func(f1), m.func(f2));
        let i1 = m.func(f1).inst_ids();
        let i2 = m.func(f2).inst_ids();
        assert!(
            !ctx.entries_equivalent(&Entry::Inst(i1[0]), &Entry::Inst(i2[0])),
            "4-byte vs 8-byte alloca"
        );
        assert!(
            !ctx.entries_equivalent(&Entry::Inst(i1[1]), &Entry::Inst(i2[1])),
            "store of differing widths"
        );
    }

    #[test]
    fn icmp_predicates_must_match() {
        let (m, f1, f2) = two_fns(|b, first| {
            let p = if first { IntPredicate::Slt } else { IntPredicate::Sgt };
            let v = b.icmp(p, Value::Param(0), b.const_i32(0));
            let z = b.zext(v, b.module().types.i32());
            b.ret(Some(z));
        });
        let ctx = EquivCtx::new(&m, m.func(f1), m.func(f2));
        let (e1, e2) = first_insts(&m, f1, f2);
        assert!(!ctx.entries_equivalent(&e1, &e2));
    }

    #[test]
    fn normal_labels_always_equivalent() {
        let (m, f1, f2) = two_fns(|b, _| {
            b.ret(Some(b.const_i32(0)));
        });
        let ctx = EquivCtx::new(&m, m.func(f1), m.func(f2));
        let b1 = m.func(f1).entry();
        let b2 = m.func(f2).entry();
        assert!(ctx.entries_equivalent(&Entry::Label(b1), &Entry::Label(b2)));
    }

    #[test]
    fn landing_labels_require_identical_pads() {
        let mut m = Module::new("m");
        let void = m.types.void();
        let thr_ty = m.types.func(void, vec![]);
        let thr = m.create_function("thrower", thr_ty);
        let fn_ty = m.types.func(void, vec![]);
        let mk = |m: &mut Module, name: &str, clause: &str| {
            let f = m.create_function(name, fn_ty);
            let mut b = FuncBuilder::new(m, f);
            let entry = b.block("entry");
            let normal = b.block("normal");
            let lpad = b.block("lpad");
            b.switch_to(entry);
            b.invoke(thr, vec![], normal, lpad);
            b.switch_to(normal);
            b.ret(None);
            b.switch_to(lpad);
            let pad = b.landingpad(vec![LandingPadClause::Catch(clause.into())], false);
            b.resume(pad);
            f
        };
        let fa = mk(&mut m, "fa", "TypeA");
        let fb = mk(&mut m, "fb", "TypeA");
        let fc = mk(&mut m, "fc", "TypeB");
        let get_lpad = |f: fmsa_ir::FuncId| {
            m.func(f)
                .block_ids()
                .find(|&b| m.func(f).is_landing_block(b))
                .expect("has landing block")
        };
        let (la, lb, lc) = (get_lpad(fa), get_lpad(fb), get_lpad(fc));
        let ctx_ab = EquivCtx::new(&m, m.func(fa), m.func(fb));
        assert!(ctx_ab.entries_equivalent(&Entry::Label(la), &Entry::Label(lb)));
        let ctx_ac = EquivCtx::new(&m, m.func(fa), m.func(fc));
        assert!(!ctx_ac.entries_equivalent(&Entry::Label(la), &Entry::Label(lc)));
        // Normal label vs landing label: never equivalent.
        let na = m.func(fa).entry();
        assert!(!ctx_ab.entries_equivalent(&Entry::Label(na), &Entry::Label(lb)));
        // Matched invokes with equivalent pads are equivalent.
        let inv_a = Entry::Inst(
            m.func(fa)
                .inst_ids()
                .into_iter()
                .find(|&i| m.func(fa).inst(i).opcode == fmsa_ir::Opcode::Invoke)
                .expect("invoke"),
        );
        let inv_c = Entry::Inst(
            m.func(fc)
                .inst_ids()
                .into_iter()
                .find(|&i| m.func(fc).inst(i).opcode == fmsa_ir::Opcode::Invoke)
                .expect("invoke"),
        );
        assert!(
            !ctx_ac.entries_equivalent(&inv_a, &inv_c),
            "invokes with different landing pads must not match"
        );
    }

    #[test]
    fn calls_require_same_callee() {
        let mut m = Module::new("m");
        let i32t = m.types.i32();
        let g_ty = m.types.func(i32t, vec![i32t]);
        let g1 = m.create_function("g1", g_ty);
        let g2 = m.create_function("g2", g_ty);
        let fn_ty = m.types.func(i32t, vec![i32t]);
        let f1 = m.create_function("f1", fn_ty);
        let f2 = m.create_function("f2", fn_ty);
        {
            let mut b = FuncBuilder::new(&mut m, f1);
            let e = b.block("entry");
            b.switch_to(e);
            let v = b.call(g1, vec![Value::Param(0)]);
            b.ret(Some(v));
        }
        {
            let mut b = FuncBuilder::new(&mut m, f2);
            let e = b.block("entry");
            b.switch_to(e);
            let v = b.call(g2, vec![Value::Param(0)]);
            b.ret(Some(v));
        }
        let ctx = EquivCtx::new(&m, m.func(f1), m.func(f2));
        let (e1, e2) = first_insts(&m, f1, f2);
        assert!(!ctx.entries_equivalent(&e1, &e2), "different callees");
    }

    #[test]
    fn label_vs_inst_never_equivalent() {
        let (m, f1, f2) = two_fns(|b, _| {
            b.ret(Some(b.const_i32(0)));
        });
        let ctx = EquivCtx::new(&m, m.func(f1), m.func(f2));
        let lbl = Entry::Label(m.func(f1).entry());
        let inst = Entry::Inst(m.func(f2).inst_ids()[0]);
        assert!(!ctx.entries_equivalent(&lbl, &inst));
    }
}
