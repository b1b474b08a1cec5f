//! The IR type system.
//!
//! Types are immutable and interned inside a [`TypeStore`] owned by a
//! [`crate::Module`]. Interning makes type equality a cheap [`TyId`]
//! comparison and keeps instructions small.
//!
//! The type system mirrors the subset of LLVM v8 types that the FMSA paper
//! touches: `void`, integers of arbitrary width, the three common floating
//! point widths, typed pointers, arrays, (optionally packed) structs, and
//! function types. `label` is the type of basic-block references.

use std::collections::HashMap;
use std::fmt::{self, Write as _};

/// An interned reference to a [`Type`] inside a [`TypeStore`].
///
/// `TyId`s are only meaningful together with the store that produced them;
/// all functions of one [`crate::Module`] share a single store, so types can
/// be compared across functions by comparing ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TyId(pub(crate) u32);

impl TyId {
    /// Raw index of this type inside its store. Mostly useful for debugging.
    pub fn index(self) -> usize {
        self.0 as usize
    }
    /// Builds an id from a raw store index (the `index()`-th interned type).
    pub fn from_index(i: usize) -> Self {
        TyId(i as u32)
    }
}

/// A structural description of an IR type.
///
/// Obtain instances through a [`TypeStore`]; the variants are public so that
/// pattern matching on `store.get(ty)` stays ergonomic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// The empty type of functions that return nothing.
    Void,
    /// The type of basic-block labels (branch targets).
    Label,
    /// An integer of the given bit width (`i1`, `i8`, ..., `i64`, `i128`).
    Int(u32),
    /// IEEE-754 half precision (16 bit).
    Half,
    /// IEEE-754 single precision (32 bit).
    Float,
    /// IEEE-754 double precision (64 bit).
    Double,
    /// A typed pointer to `pointee` (LLVM v8-era pointers carry a pointee).
    Ptr {
        /// Type this pointer points to.
        pointee: TyId,
    },
    /// A fixed-length homogeneous array.
    Array {
        /// Element type.
        elem: TyId,
        /// Number of elements.
        len: u64,
    },
    /// A struct, possibly packed (no padding between fields).
    Struct {
        /// Field types, in declaration order.
        fields: Vec<TyId>,
        /// If `true`, fields are laid out without padding.
        packed: bool,
    },
    /// A function signature.
    Func {
        /// Return type (`Void` for `void` functions).
        ret: TyId,
        /// Parameter types, in order.
        params: Vec<TyId>,
        /// Whether the function accepts variadic trailing arguments.
        varargs: bool,
    },
}

/// Interning arena for [`Type`]s.
///
/// A fresh store eagerly contains the common primitive types so the
/// convenience accessors ([`TypeStore::i32`], [`TypeStore::f64`], ...) never
/// allocate.
#[derive(Debug, Clone)]
pub struct TypeStore {
    types: Vec<Type>,
    interner: HashMap<Type, TyId>,
    // Pre-interned primitives.
    void: TyId,
    label: TyId,
    i1: TyId,
    i8: TyId,
    i16: TyId,
    i32: TyId,
    i64: TyId,
    half: TyId,
    float: TyId,
    double: TyId,
}

impl Default for TypeStore {
    fn default() -> Self {
        Self::new()
    }
}

impl TypeStore {
    /// Creates a store pre-populated with the primitive types.
    pub fn new() -> Self {
        let mut store = TypeStore {
            types: Vec::new(),
            interner: HashMap::new(),
            void: TyId(0),
            label: TyId(0),
            i1: TyId(0),
            i8: TyId(0),
            i16: TyId(0),
            i32: TyId(0),
            i64: TyId(0),
            half: TyId(0),
            float: TyId(0),
            double: TyId(0),
        };
        store.void = store.intern(Type::Void);
        store.label = store.intern(Type::Label);
        store.i1 = store.intern(Type::Int(1));
        store.i8 = store.intern(Type::Int(8));
        store.i16 = store.intern(Type::Int(16));
        store.i32 = store.intern(Type::Int(32));
        store.i64 = store.intern(Type::Int(64));
        store.half = store.intern(Type::Half);
        store.float = store.intern(Type::Float);
        store.double = store.intern(Type::Double);
        store
    }

    /// Interns `ty`, returning the canonical id for it.
    pub fn intern(&mut self, ty: Type) -> TyId {
        if let Some(id) = self.lookup(&ty) {
            return id;
        }
        let id = TyId(self.types.len() as u32);
        self.types.push(ty.clone());
        self.interner.insert(ty, id);
        id
    }

    /// The canonical id of `ty` if it is already interned, without
    /// interning it. Lets read-only contexts (e.g. call-site rewriting,
    /// which holds `&TypeStore` while it mutates a function of the same
    /// module) resolve types that were interned up front.
    pub fn lookup(&self, ty: &Type) -> Option<TyId> {
        self.interner.get(ty).copied()
    }

    /// Returns the structural description of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was produced by a different store.
    pub fn get(&self, id: TyId) -> &Type {
        &self.types[id.0 as usize]
    }

    /// Number of distinct types interned so far.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Drops every type interned after the first `len`, interner entries
    /// included, so the store is again what it was at that length: a
    /// mutation that is undone leaves no types behind, and the next type
    /// interned gets id `len`. A `len` at or past [`TypeStore::len`]
    /// changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `len` would drop a pre-interned primitive.
    pub fn truncate(&mut self, len: usize) {
        // `new` interns the primitives first, `double` last.
        let primitives = self.double.index() + 1;
        assert!(len >= primitives, "truncating to {len} types would drop pre-interned primitives");
        if len < self.types.len() {
            for ty in self.types.drain(len..) {
                self.interner.remove(&ty);
            }
        }
    }

    /// Whether `id` refers to a type interned in *this* store. Ids from a
    /// different store with a larger type table are out of range here;
    /// [`TypeStore::get`] would panic on them. The verifier uses this to
    /// report cross-module type ids instead of crashing.
    pub fn contains(&self, id: TyId) -> bool {
        (id.0 as usize) < self.len()
    }

    /// Whether the store contains only the pre-interned primitives.
    pub fn is_empty(&self) -> bool {
        false // primitives are always present
    }

    /// The `void` type.
    pub fn void(&self) -> TyId {
        self.void
    }

    /// The `label` type.
    pub fn label(&self) -> TyId {
        self.label
    }

    /// The `i1` (boolean) type.
    pub fn i1(&self) -> TyId {
        self.i1
    }

    /// The `i8` type.
    pub fn i8(&self) -> TyId {
        self.i8
    }

    /// The `i16` type.
    pub fn i16(&self) -> TyId {
        self.i16
    }

    /// The `i32` type.
    pub fn i32(&self) -> TyId {
        self.i32
    }

    /// The `i64` type.
    pub fn i64(&self) -> TyId {
        self.i64
    }

    /// The `half` type.
    pub fn half(&self) -> TyId {
        self.half
    }

    /// The `float` type.
    pub fn f32(&self) -> TyId {
        self.float
    }

    /// The `double` type.
    pub fn f64(&self) -> TyId {
        self.double
    }

    /// Interns an integer type of the given bit width.
    pub fn int(&mut self, bits: u32) -> TyId {
        self.intern(Type::Int(bits))
    }

    /// Interns a pointer to `pointee`.
    pub fn ptr(&mut self, pointee: TyId) -> TyId {
        self.intern(Type::Ptr { pointee })
    }

    /// Interns an array type.
    pub fn array(&mut self, elem: TyId, len: u64) -> TyId {
        self.intern(Type::Array { elem, len })
    }

    /// Interns a non-packed struct type.
    pub fn struct_(&mut self, fields: Vec<TyId>) -> TyId {
        self.intern(Type::Struct { fields, packed: false })
    }

    /// Interns a packed struct type.
    pub fn packed_struct(&mut self, fields: Vec<TyId>) -> TyId {
        self.intern(Type::Struct { fields, packed: true })
    }

    /// Interns a non-variadic function type.
    pub fn func(&mut self, ret: TyId, params: Vec<TyId>) -> TyId {
        self.intern(Type::Func { ret, params, varargs: false })
    }

    /// Interns a variadic function type.
    pub fn varargs_func(&mut self, ret: TyId, params: Vec<TyId>) -> TyId {
        self.intern(Type::Func { ret, params, varargs: true })
    }

    /// Whether `ty` is a first-class value type (can be produced by an
    /// instruction and passed around): everything except `void`, `label`
    /// and bare function types.
    pub fn is_first_class(&self, ty: TyId) -> bool {
        !matches!(self.get(ty), Type::Void | Type::Label | Type::Func { .. })
    }

    /// Whether `ty` is an integer type.
    pub fn is_int(&self, ty: TyId) -> bool {
        matches!(self.get(ty), Type::Int(_))
    }

    /// Whether `ty` is a floating-point type.
    pub fn is_float(&self, ty: TyId) -> bool {
        matches!(self.get(ty), Type::Half | Type::Float | Type::Double)
    }

    /// Whether `ty` is a pointer type.
    pub fn is_ptr(&self, ty: TyId) -> bool {
        matches!(self.get(ty), Type::Ptr { .. })
    }

    /// Whether `ty` is an aggregate (array or struct).
    pub fn is_aggregate(&self, ty: TyId) -> bool {
        matches!(self.get(ty), Type::Array { .. } | Type::Struct { .. })
    }

    /// Integer bit width, if `ty` is an integer.
    pub fn int_width(&self, ty: TyId) -> Option<u32> {
        match self.get(ty) {
            Type::Int(w) => Some(*w),
            _ => None,
        }
    }

    /// Pointee type, if `ty` is a pointer.
    pub fn pointee(&self, ty: TyId) -> Option<TyId> {
        match self.get(ty) {
            Type::Ptr { pointee } => Some(*pointee),
            _ => None,
        }
    }

    /// Return type of a function type.
    pub fn fn_ret(&self, fn_ty: TyId) -> Option<TyId> {
        match self.get(fn_ty) {
            Type::Func { ret, .. } => Some(*ret),
            _ => None,
        }
    }

    /// Parameter types of a function type.
    pub fn fn_params(&self, fn_ty: TyId) -> Option<&[TyId]> {
        match self.get(fn_ty) {
            Type::Func { params, .. } => Some(params),
            _ => None,
        }
    }

    /// Whether `fn_ty` is a function type that takes arguments after its
    /// fixed params.
    pub fn is_varargs(&self, fn_ty: TyId) -> bool {
        matches!(self.get(fn_ty), Type::Func { varargs: true, .. })
    }

    /// Size of `ty` in bits when stored in a register, following a 64-bit
    /// data layout (pointers are 64 bits). Returns `None` for types without
    /// a size (`void`, `label`, function types).
    pub fn bit_size(&self, ty: TyId) -> Option<u64> {
        match self.get(ty) {
            Type::Void | Type::Label | Type::Func { .. } => None,
            Type::Int(w) => Some(*w as u64),
            Type::Half => Some(16),
            Type::Float => Some(32),
            Type::Double => Some(64),
            Type::Ptr { .. } => Some(64),
            Type::Array { elem, len } => Some(self.byte_size(*elem)? * 8 * len),
            Type::Struct { .. } => Some(self.byte_size(ty)? * 8),
        }
    }

    /// Size of `ty` in bytes when stored in memory (integers round up to
    /// whole bytes; structs account for field alignment unless packed).
    pub fn byte_size(&self, ty: TyId) -> Option<u64> {
        match self.get(ty) {
            Type::Void | Type::Label | Type::Func { .. } => None,
            Type::Int(w) => Some((*w as u64).div_ceil(8)),
            Type::Half => Some(2),
            Type::Float => Some(4),
            Type::Double => Some(8),
            Type::Ptr { .. } => Some(8),
            Type::Array { elem, len } => Some(self.byte_size(*elem)? * len),
            Type::Struct { fields, packed } => {
                let mut size = 0u64;
                let mut max_align = 1u64;
                for &f in fields {
                    let fsize = self.byte_size(f)?;
                    let falign = if *packed { 1 } else { self.align_of(f)? };
                    max_align = max_align.max(falign);
                    size = round_up(size, falign) + fsize;
                }
                Some(round_up(size, max_align))
            }
        }
    }

    /// ABI alignment of `ty` in bytes (64-bit data layout).
    pub fn align_of(&self, ty: TyId) -> Option<u64> {
        match self.get(ty) {
            Type::Void | Type::Label | Type::Func { .. } => None,
            Type::Int(w) => Some((*w as u64).div_ceil(8).next_power_of_two().min(8)),
            Type::Half => Some(2),
            Type::Float => Some(4),
            Type::Double => Some(8),
            Type::Ptr { .. } => Some(8),
            Type::Array { elem, .. } => self.align_of(*elem),
            Type::Struct { fields, packed } => {
                if *packed {
                    return Some(1);
                }
                let mut max_align = 1u64;
                for &f in fields {
                    max_align = max_align.max(self.align_of(f)?);
                }
                Some(max_align)
            }
        }
    }

    /// Byte offset of field `idx` inside struct `ty`.
    pub fn struct_field_offset(&self, ty: TyId, idx: usize) -> Option<u64> {
        match self.get(ty) {
            Type::Struct { fields, packed } => {
                let mut off = 0u64;
                for (i, &f) in fields.iter().enumerate() {
                    let falign = if *packed { 1 } else { self.align_of(f)? };
                    off = round_up(off, falign);
                    if i == idx {
                        return Some(off);
                    }
                    off += self.byte_size(f)?;
                }
                None
            }
            _ => None,
        }
    }

    /// Whether a value of type `a` can be converted to type `b` by a
    /// lossless `bitcast` — the equivalence the paper uses both for
    /// instruction-type equivalence (§III-D) and for the tolerance of
    /// LLVM's identical-function merging.
    ///
    /// Two first-class, non-aggregate types are losslessly bitcastable when
    /// they have the same bit width; any two pointers are interchangeable.
    pub fn can_lossless_bitcast(&self, a: TyId, b: TyId) -> bool {
        if a == b {
            return true;
        }
        let (ta, tb) = (self.get(a), self.get(b));
        match (ta, tb) {
            (Type::Ptr { .. }, Type::Ptr { .. }) => true,
            _ => {
                if self.is_aggregate(a) || self.is_aggregate(b) {
                    return false;
                }
                if !self.is_first_class(a) || !self.is_first_class(b) {
                    return false;
                }
                // Pointer <-> non-pointer bitcasts are not lossless (they
                // would be ptrtoint/inttoptr).
                if self.is_ptr(a) != self.is_ptr(b) {
                    return false;
                }
                match (self.bit_size(a), self.bit_size(b)) {
                    (Some(x), Some(y)) => x == y,
                    _ => false,
                }
            }
        }
    }

    /// Renders `ty` using LLVM-like syntax (`i32`, `float*`, `{ i32, i8 }`).
    pub fn display(&self, ty: TyId) -> String {
        let mut out = String::new();
        self.display_into(ty, &mut out);
        out
    }

    /// Appends the [`TypeStore::display`] text of `ty` to `out`.
    pub fn display_into(&self, ty: TyId, out: &mut String) {
        match self.get(ty) {
            Type::Void => out.push_str("void"),
            Type::Label => out.push_str("label"),
            Type::Int(w) => {
                let _ = write!(out, "i{w}");
            }
            Type::Half => out.push_str("half"),
            Type::Float => out.push_str("float"),
            Type::Double => out.push_str("double"),
            Type::Ptr { pointee } => {
                self.display_into(*pointee, out);
                out.push('*');
            }
            Type::Array { elem, len } => {
                let _ = write!(out, "[{len} x ");
                self.display_into(*elem, out);
                out.push(']');
            }
            Type::Struct { fields, packed } => {
                out.push_str(if *packed { "<{ " } else { "{ " });
                self.list_into(fields, out);
                out.push_str(if *packed { " }>" } else { " }" });
            }
            Type::Func { ret, params, varargs } => {
                self.display_into(*ret, out);
                out.push_str(" (");
                self.list_into(params, out);
                if *varargs {
                    out.push_str(if params.is_empty() { "..." } else { ", ..." });
                }
                out.push(')');
            }
        }
    }

    fn list_into(&self, tys: &[TyId], out: &mut String) {
        for (k, &ty) in tys.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            self.display_into(ty, out);
        }
    }
}

fn round_up(v: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two() || align == 1);
    v.div_ceil(align) * align
}

impl fmt::Display for TyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ty{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes() {
        let mut ts = TypeStore::new();
        let a = ts.int(32);
        let b = ts.int(32);
        assert_eq!(a, b);
        assert_eq!(a, ts.i32());
        let p1 = ts.ptr(a);
        let p2 = ts.ptr(b);
        assert_eq!(p1, p2);
        assert_ne!(p1, a);
    }

    #[test]
    fn primitive_sizes() {
        let ts = TypeStore::new();
        assert_eq!(ts.bit_size(ts.i1()), Some(1));
        assert_eq!(ts.byte_size(ts.i1()), Some(1));
        assert_eq!(ts.bit_size(ts.i32()), Some(32));
        assert_eq!(ts.byte_size(ts.f64()), Some(8));
        assert_eq!(ts.bit_size(ts.void()), None);
    }

    #[test]
    fn pointer_sizes_are_64_bit() {
        let mut ts = TypeStore::new();
        let p = ts.ptr(ts.i8());
        assert_eq!(ts.bit_size(p), Some(64));
        assert_eq!(ts.byte_size(p), Some(8));
        assert_eq!(ts.align_of(p), Some(8));
    }

    #[test]
    fn struct_layout_with_padding() {
        let mut ts = TypeStore::new();
        // { i8, i32 } -> i8 at 0, i32 at 4, total 8, align 4.
        let s = ts.struct_(vec![ts.i8(), ts.i32()]);
        assert_eq!(ts.byte_size(s), Some(8));
        assert_eq!(ts.align_of(s), Some(4));
        assert_eq!(ts.struct_field_offset(s, 0), Some(0));
        assert_eq!(ts.struct_field_offset(s, 1), Some(4));
    }

    #[test]
    fn packed_struct_layout() {
        let mut ts = TypeStore::new();
        let s = ts.packed_struct(vec![ts.i8(), ts.i32()]);
        assert_eq!(ts.byte_size(s), Some(5));
        assert_eq!(ts.struct_field_offset(s, 1), Some(1));
    }

    #[test]
    fn array_size() {
        let mut ts = TypeStore::new();
        let a = ts.array(ts.i32(), 10);
        assert_eq!(ts.byte_size(a), Some(40));
        assert_eq!(ts.bit_size(a), Some(320));
    }

    #[test]
    fn lossless_bitcast_rules() {
        let mut ts = TypeStore::new();
        let i32t = ts.i32();
        let f32t = ts.f32();
        let i64t = ts.i64();
        let f64t = ts.f64();
        let p8 = ts.ptr(ts.i8());
        let p32 = ts.ptr(i32t);
        assert!(ts.can_lossless_bitcast(i32t, f32t));
        assert!(ts.can_lossless_bitcast(i64t, f64t));
        assert!(!ts.can_lossless_bitcast(i32t, f64t));
        assert!(!ts.can_lossless_bitcast(f32t, f64t));
        assert!(ts.can_lossless_bitcast(p8, p32), "pointers are interchangeable");
        assert!(!ts.can_lossless_bitcast(p8, i64t), "ptr<->int is not a bitcast");
        // void<->void is unspecified; only require that the query is safe.
        let _ = ts.can_lossless_bitcast(ts.void(), ts.void());
    }

    #[test]
    fn display_forms() {
        let mut ts = TypeStore::new();
        let p = ts.ptr(ts.f32());
        assert_eq!(ts.display(p), "float*");
        let s = ts.struct_(vec![ts.i32(), p]);
        assert_eq!(ts.display(s), "{ i32, float* }");
        let f = ts.func(ts.void(), vec![ts.i32()]);
        assert_eq!(ts.display(f), "void (i32)");
        let a = ts.array(ts.i8(), 4);
        assert_eq!(ts.display(a), "[4 x i8]");
    }

    #[test]
    fn lookup_finds_only_interned_types() {
        let mut ts = TypeStore::new();
        let q = ts.ptr(ts.i8());
        assert_eq!(ts.lookup(&Type::Ptr { pointee: ts.i8() }), Some(q));
        assert_eq!(ts.lookup(&Type::Int(999)), None);
        assert_eq!(ts.len(), TypeStore::new().len() + 1, "lookup never interns");
    }

    #[test]
    fn truncate_drops_later_types_and_their_interner_entries() {
        let mut ts = TypeStore::new();
        let p8 = ts.ptr(ts.i8());
        let len = ts.len();
        let s = ts.struct_(vec![ts.i32(), p8]);
        ts.func(s, vec![p8]);
        let dropped = ts.get(s).clone();
        ts.truncate(len);
        assert_eq!(ts.len(), len);
        assert_eq!(ts.lookup(&dropped), None, "a dropped type is not found");
        assert_eq!(ts.lookup(&Type::Ptr { pointee: ts.i8() }), Some(p8), "earlier types stay");
        // Re-interning a dropped type gives it the id at the new length.
        assert_eq!(ts.intern(dropped), TyId::from_index(len));
        assert_eq!(ts.len(), len + 1);
        // Truncating past the end changes nothing.
        ts.truncate(len + 5);
        assert_eq!(ts.len(), len + 1);
    }

    #[test]
    #[should_panic(expected = "pre-interned primitives")]
    fn truncating_into_the_primitives_panics() {
        let mut ts = TypeStore::new();
        ts.truncate(TypeStore::new().len() - 1);
    }

    #[test]
    fn fn_accessors() {
        let mut ts = TypeStore::new();
        let f = ts.func(ts.i32(), vec![ts.f64(), ts.i1()]);
        assert_eq!(ts.fn_ret(f), Some(ts.i32()));
        assert_eq!(ts.fn_params(f).unwrap().len(), 2);
        assert_eq!(ts.fn_ret(ts.i32()), None);
    }
}
