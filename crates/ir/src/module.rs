//! Modules: a set of functions sharing a [`TypeStore`].

use crate::function::Function;
use crate::types::{TyId, TypeStore};
use crate::value::{FuncId, Value};
use std::collections::HashMap;

/// A compilation unit: functions plus the interned type store they share.
///
/// Functions are tombstoned on removal so [`FuncId`]s stay stable.
#[derive(Debug, Clone)]
pub struct Module {
    /// Module name (used in diagnostics and experiment reports).
    pub name: String,
    /// The shared type store.
    pub types: TypeStore,
    functions: Vec<Option<Function>>,
    by_name: HashMap<String, FuncId>,
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Module {
        Module {
            name: name.into(),
            types: TypeStore::new(),
            functions: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Adds `func` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a live function with the same name already exists.
    pub fn add_function(&mut self, func: Function) -> FuncId {
        assert!(!self.by_name.contains_key(&func.name), "duplicate function name {:?}", func.name);
        let id = FuncId::from_index(self.functions.len());
        self.by_name.insert(func.name.clone(), id);
        self.functions.push(Some(func));
        id
    }

    /// Convenience: creates an empty function with signature `fn_ty` and
    /// adds it.
    pub fn create_function(&mut self, name: impl Into<String>, fn_ty: TyId) -> FuncId {
        let f = Function::new(name, fn_ty, &self.types);
        self.add_function(f)
    }

    /// Shared access to a function.
    ///
    /// # Panics
    ///
    /// Panics if the function was removed.
    pub fn func(&self, id: FuncId) -> &Function {
        self.functions[id.index()].as_ref().expect("live function")
    }

    /// Mutable access to a function.
    ///
    /// # Panics
    ///
    /// Panics if the function was removed.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        self.functions[id.index()].as_mut().expect("live function")
    }

    /// Mutable access to a function together with shared access to the
    /// type store — the borrow split `&mut self` methods cannot express.
    /// Used by code that rewrites one function body against pre-interned
    /// types (e.g. call-site rewriting).
    ///
    /// # Panics
    ///
    /// Panics if the function was removed.
    pub fn func_mut_with_types(&mut self, id: FuncId) -> (&mut Function, &TypeStore) {
        (self.functions[id.index()].as_mut().expect("live function"), &self.types)
    }

    /// Whether `id` refers to a function that has not been removed.
    pub fn is_live(&self, id: FuncId) -> bool {
        self.functions.get(id.index()).is_some_and(Option::is_some)
    }

    /// Ids of all live functions, in insertion order.
    pub fn func_ids(&self) -> Vec<FuncId> {
        (0..self.functions.len()).map(FuncId::from_index).filter(|&id| self.is_live(id)).collect()
    }

    /// Number of live functions.
    pub fn func_count(&self) -> usize {
        self.functions.iter().filter(|f| f.is_some()).count()
    }

    /// Length of the function arena, counting removed slots. Every
    /// function created from now on gets an index `>= func_arena_len()` —
    /// an O(1) high-water mark that lets a caller snapshot the module
    /// before a fallible mutation and sweep partially-built functions
    /// afterwards.
    pub fn func_arena_len(&self) -> usize {
        self.functions.len()
    }

    /// Looks up a live function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.by_name.get(name).copied().filter(|&id| self.is_live(id))
    }

    /// Removes `id` from the module. Call sites referring to it must be
    /// rewritten first (see [`Module::replace_fn_uses`]).
    pub fn remove_function(&mut self, id: FuncId) {
        if let Some(f) = self.functions[id.index()].take() {
            self.by_name.remove(&f.name);
        }
    }

    /// Replaces every use of function `from` as an operand (call sites,
    /// address references) with `to`, across the whole module.
    ///
    /// Note: this performs a *plain* substitution; when argument lists must
    /// change (merged functions take extra parameters) the caller rewrites
    /// call sites itself.
    pub fn replace_fn_uses(&mut self, from: FuncId, to: FuncId) {
        for slot in self.functions.iter_mut().flatten() {
            slot.replace_all_uses(Value::Func(from), Value::Func(to));
        }
    }

    /// Total number of instructions across live function bodies.
    pub fn total_insts(&self) -> usize {
        self.functions.iter().flatten().map(Function::inst_count).sum()
    }

    /// Returns `(min, avg, max)` of defined-function sizes in instructions,
    /// as reported in Tables I/II of the paper. Declarations are skipped.
    pub fn size_stats(&self) -> (usize, f64, usize) {
        let sizes: Vec<usize> = self
            .functions
            .iter()
            .flatten()
            .filter(|f| !f.is_declaration())
            .map(Function::inst_count)
            .collect();
        if sizes.is_empty() {
            return (0, 0.0, 0);
        }
        let min = *sizes.iter().min().expect("non-empty");
        let max = *sizes.iter().max().expect("non-empty");
        let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        (min, avg, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Inst, Opcode};

    #[test]
    fn add_lookup_remove() {
        let mut m = Module::new("m");
        let fn_ty = m.types.func(m.types.void(), vec![]);
        let a = m.create_function("a", fn_ty);
        let b = m.create_function("b", fn_ty);
        assert_eq!(m.func_count(), 2);
        assert_eq!(m.func_by_name("a"), Some(a));
        m.remove_function(a);
        assert!(!m.is_live(a));
        assert_eq!(m.func_by_name("a"), None);
        assert_eq!(m.func_ids(), vec![b]);
    }

    #[test]
    #[should_panic(expected = "duplicate function name")]
    fn duplicate_names_rejected() {
        let mut m = Module::new("m");
        let fn_ty = m.types.func(m.types.void(), vec![]);
        m.create_function("a", fn_ty);
        m.create_function("a", fn_ty);
    }

    #[test]
    fn replace_fn_uses_rewrites_call_sites() {
        let mut m = Module::new("m");
        let void = m.types.void();
        let fn_ty = m.types.func(void, vec![]);
        let callee = m.create_function("callee", fn_ty);
        let callee2 = m.create_function("callee2", fn_ty);
        let caller = m.create_function("caller", fn_ty);
        let b = m.func_mut(caller).add_block("entry");
        m.func_mut(caller).append_inst(b, Inst::new(Opcode::Call, void, vec![Value::Func(callee)]));
        m.func_mut(caller).append_inst(b, Inst::new(Opcode::Ret, void, vec![]));
        m.replace_fn_uses(callee, callee2);
        let f = m.func(caller);
        let first = f.block(b).insts[0];
        assert_eq!(f.inst(first).operands[0], Value::Func(callee2));
    }

    #[test]
    fn size_stats_skip_declarations() {
        let mut m = Module::new("m");
        let void = m.types.void();
        let fn_ty = m.types.func(void, vec![]);
        m.create_function("decl", fn_ty); // declaration, no body
        let f = m.create_function("def", fn_ty);
        let b = m.func_mut(f).add_block("entry");
        m.func_mut(f).append_inst(b, Inst::new(Opcode::Ret, void, vec![]));
        let (min, avg, max) = m.size_stats();
        assert_eq!((min, max), (1, 1));
        assert!((avg - 1.0).abs() < 1e-9);
    }
}
